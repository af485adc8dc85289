package iscas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/techmap"
	"repro/internal/timing"
)

func TestProfilesMatchPublishedStats(t *testing.T) {
	want := map[string][4]int{ // PI, PO, FF, gates
		"s344": {9, 11, 15, 160}, "s382": {3, 6, 21, 158},
		"s444": {3, 6, 21, 181}, "s510": {19, 7, 6, 211},
		"s641": {35, 24, 19, 379}, "s713": {35, 23, 19, 393},
		"s1196": {14, 14, 18, 529}, "s1238": {14, 14, 18, 508},
		"s1423": {17, 5, 74, 657}, "s1494": {8, 19, 6, 647},
		"s5378": {35, 49, 179, 2779}, "s9234": {36, 39, 211, 5597},
	}
	if len(Profiles) != len(want) {
		t.Fatalf("have %d profiles, want %d", len(Profiles), len(want))
	}
	for _, p := range Profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %s", p.Name)
			continue
		}
		if p.PIs != w[0] || p.POs != w[1] || p.FFs != w[2] || p.Gates != w[3] {
			t.Errorf("%s profile = %+v, want %v", p.Name, p, w)
		}
	}
}

func TestGenerateMatchesProfile(t *testing.T) {
	for _, p := range Profiles {
		c, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		st := c.ComputeStats()
		if st.PIs != p.PIs || st.POs != p.POs || st.FFs != p.FFs || st.Gates != p.Gates {
			t.Errorf("%s: generated %v, want profile %+v", p.Name, st, p)
		}
		if !techmap.IsMapped(c, 4) {
			t.Errorf("%s: not library-only", p.Name)
		}
		if st.Depth < 3 {
			t.Errorf("%s: depth %d implausibly shallow", p.Name, st.Depth)
		}
	}
}

func TestGenerateLargest(t *testing.T) {
	p, ok := ByName("s9234")
	if !ok {
		t.Fatal("s9234 profile missing")
	}
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Timing must show a mix of critical and slack-rich pseudo-inputs so
	// AddMUX has real decisions to make.
	a := timing.Analyze(c, timing.Default())
	if a.Critical <= 0 {
		t.Fatal("no critical path")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("s344")
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if bench.Canonical(a) != bench.Canonical(b) {
		t.Error("generation is not deterministic")
	}
}

func TestGenerateMostNetsObservable(t *testing.T) {
	p, _ := ByName("s641")
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for ni := range c.Nets {
		n := &c.Nets[ni]
		if !n.IsPO() && len(n.Fanout) == 0 && len(n.FanoutFF) == 0 {
			dead++
		}
	}
	if frac := float64(dead) / float64(c.NumNets()); frac > 0.05 {
		t.Errorf("%.1f%% of nets are dead; generator should keep logic observable", frac*100)
	}
}

func TestGenerateRejectsBadProfile(t *testing.T) {
	if _, err := Generate(Profile{Name: "bad", PIs: 0, FFs: 1, Gates: 10}); err == nil {
		t.Error("accepted zero-PI profile")
	}
	if _, err := Generate(Profile{Name: "bad", PIs: 2, FFs: 2, POs: 9, Gates: 5}); err == nil {
		t.Error("accepted gates < terminals")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("s344"); !ok {
		t.Error("s344 missing")
	}
	if _, ok := ByName("s99999"); ok {
		t.Error("found nonexistent circuit")
	}
}

func TestS27IsReal(t *testing.T) {
	c := S27()
	st := c.ComputeStats()
	if st.PIs != 4 || st.POs != 1 || st.FFs != 3 || st.Gates != 10 {
		t.Errorf("embedded s27 stats wrong: %v", st)
	}
}

// TestCritFracControlsMuxability pins the critical-spine mechanism: the
// generated s510 (CritFrac 0.95) must leave AddMUX almost nothing to mux,
// while s5378 (CritFrac 0.02) must be nearly fully muxable — this is the
// structural property behind the paper's per-circuit spread of dynamic
// improvements.
func TestCritFracControlsMuxability(t *testing.T) {
	count := func(name string) (muxable, ffs int) {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		c, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		a := timing.Analyze(c, timing.Default())
		for _, ff := range c.FFs {
			if !a.WouldMuxChangeCritical(ff.Q) {
				muxable++
			}
		}
		return muxable, c.NumFFs()
	}
	if m, n := count("s510"); m > n/3 {
		t.Errorf("s510: %d/%d muxable, want almost none (CritFrac 0.95)", m, n)
	}
	if m, n := count("s5378"); m < n*9/10 {
		t.Errorf("s5378: %d/%d muxable, want nearly all (CritFrac 0.02)", m, n)
	}
	if m, n := count("s1196"); m > n*2/3 {
		t.Errorf("s1196: %d/%d muxable, want a clear minority unmuxable at least (CritFrac 0.8)", m, n)
	}
}

// TestGenerateGolden pins every Table I circuit byte for byte: the
// SHA-256 of its .bench text and its structural Fingerprint. Every
// published Table I number, benchmark digest and stored scanpowerd
// result depends on these circuits, so any change to the generator's
// rng call sequence, net naming or net order must fail here.
func TestGenerateGolden(t *testing.T) {
	want := map[string][2]string{ // name: {sha256 of bench.Write, Fingerprint}
		"s344":  {"bd07d4b36875163c6b65e4c6f2cacecfaa08abc355f1a6a367f9780868da7a61", "4709e275df5c81fb"},
		"s382":  {"1a19378a43b10cf12c5e7ed92e20a86ade8d56caf8dbc7040c841570778259b1", "06a6acab05cebbdc"},
		"s444":  {"b1748872f6b468b7bffc44f0ede5a7504f9c192cd0bade44f4b2f4ee842b9f7f", "654fd277f7590e7b"},
		"s510":  {"1dc911a47c89ab32be80a590c2c6a274e3f6ffc766a5849d32dfec85a471db98", "dd47c08acfd59ab8"},
		"s641":  {"30c5bae235004bade1b3de908303167e79e2aa09a963e0676afc0a980da7d748", "acf7295a8e81ae56"},
		"s713":  {"86b2e04dbfc19a76f0fc19beaeae2cf599accedae06d365ec9b586a9fe38dcb0", "f50ce950b532f739"},
		"s1196": {"b51587889a4155018e71713f3b8a5993725a41c90f07d53e7c432a361c20933f", "2dce941dd4b80d44"},
		"s1238": {"31a36b7aa7fb2faa219807e011335951c7d82e3e7493e873e10f21af2d9a1ab3", "81b9aadf60e42d3d"},
		"s1423": {"8d547cc8b96b94f9887d4f8bf8630a633ea8af1638cb31cad486bcb90f1bfaac", "8864ab51e34d410f"},
		"s1494": {"c0476524f52cb953cecd20a5e94d5313079688d9482f0044b720c18c4e34cf23", "abdcfe7fa4a16f01"},
		"s5378": {"03bed940375bd935fc69e887d9b9eb432a1080fa81e296efc3a6125f6b9577ba", "20b93924fdcc6e6e"},
		"s9234": {"2a496b0efb782d9c54d4d5c292104f9c8cf1e1d957d6a4419936e160c18bcc85", "4dc593fddbd2502e"},
	}
	if len(want) != len(Profiles) {
		t.Fatalf("golden table has %d circuits, Profiles has %d", len(want), len(Profiles))
	}
	for _, p := range Profiles {
		c, err := Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		text, fp := digest(t, c)
		sum := sha256.Sum256(text)
		got := [2]string{hex.EncodeToString(sum[:]), fmt.Sprintf("%016x", fp)}
		if got != want[p.Name] {
			t.Errorf("%s: sha256 %s fingerprint %s, want %s %s",
				p.Name, got[0], got[1], want[p.Name][0], want[p.Name][1])
		}
	}
}

// BenchmarkGenerate times Generate on each Table I profile.
func BenchmarkGenerate(b *testing.B) {
	for _, p := range Profiles {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := Generate(p)
				if err != nil {
					b.Fatal(err)
				}
				generated = c
			}
		})
	}
}

// generated keeps BenchmarkGenerate's result live so the call is not
// optimised away.
var generated *netlist.Circuit

// digest returns the .bench text and Fingerprint of a generated circuit.
func digest(t testing.TB, c *netlist.Circuit) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		t.Fatalf("%s: bench.Write: %v", c.Name, err)
	}
	return buf.Bytes(), c.Fingerprint()
}

// FuzzGenerateEquivalence drives Generate and the original quadratic
// generator over random profiles: both must reject the same profiles with
// the same error, or build circuits with identical .bench text and
// Fingerprint. The corpus reaches deep spines (CritFrac >= 0.15), the
// tries > 12 fallback pick, gate arities above the pool size and the
// implausible-profile error.
func FuzzGenerateEquivalence(f *testing.F) {
	f.Add(int64(510), uint8(18), uint8(7), uint8(5), uint16(211), 0.30, 0.95) // s510: deep spines
	f.Add(int64(9234), uint8(35), uint8(39), uint8(60), uint16(1500), 0.03, 0.02)
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint16(1), 0.0, 0.0)  // one PI, one FF: fallback
	f.Add(int64(3), uint8(0), uint8(0), uint8(0), uint16(40), 0.0, 0.0) // arity > pool size
	f.Add(int64(4), uint8(2), uint8(9), uint8(9), uint16(12), 0.5, 0.5) // gates < POs+FFs
	f.Add(int64(-7), uint8(39), uint8(63), uint8(249), uint16(1400), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, pis, pos, ffs uint8, gates uint16, xorFrac, critFrac float64) {
		p := Profile{
			Name:     "fz",
			PIs:      1 + int(pis)%40,
			POs:      int(pos) % 64,
			FFs:      1 + int(ffs)%250,
			Gates:    int(gates) % 1501,
			Seed:     seed,
			XORFrac:  unitFrac(xorFrac),
			CritFrac: unitFrac(critFrac),
		}
		got, gotErr := Generate(p)
		want, wantErr := generateReference(p)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%+v: error %v, reference %v", p, gotErr, wantErr)
			}
			return
		}
		gotText, gotFP := digest(t, got)
		wantText, wantFP := digest(t, want)
		if !bytes.Equal(gotText, wantText) || gotFP != wantFP {
			t.Fatalf("%+v: circuit differs from the reference (fingerprint %016x, reference %016x)",
				p, gotFP, wantFP)
		}
	})
}

// unitFrac folds any float into [0, 1].
func unitFrac(f float64) float64 {
	f = math.Abs(f)
	if f > 1 {
		f = math.Mod(f, 1)
	}
	if math.IsNaN(f) {
		return 0
	}
	return f
}
