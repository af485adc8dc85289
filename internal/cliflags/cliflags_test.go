package cliflags

import (
	"flag"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestSharedFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	workers := Workers(fs, "j", 4, "worker pool size")
	atpgWorkers := ATPGWorkers(fs)
	timeout := Timeout(fs, "timeout", 0, "run deadline")
	cluster := ClusterFlags(fs)

	err := fs.Parse([]string{
		"-j", "2", "-atpg-workers", "3", "-timeout", "90s",
		"-peers", " 10.0.0.2:8344, http://10.0.0.3:8344/ ,",
		"-store-dir", "/tmp/s", "-store-max-bytes", "1024",
	})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if *workers != 2 || *atpgWorkers != 3 || *timeout != 90*time.Second {
		t.Errorf("parsed %d %d %v", *workers, *atpgWorkers, *timeout)
	}
	if cluster.StoreDir != "/tmp/s" || cluster.StoreMaxBytes != 1024 {
		t.Errorf("cluster = %+v", cluster)
	}
	want := []string{"http://10.0.0.2:8344", "http://10.0.0.3:8344"}
	if got := cluster.PeerList(); !reflect.DeepEqual(got, want) {
		t.Errorf("PeerList = %v, want %v", got, want)
	}
}

func TestDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	atpgWorkers := ATPGWorkers(fs)
	cluster := ClusterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *atpgWorkers != 1 {
		t.Errorf("-atpg-workers default = %d, want 1 (serial)", *atpgWorkers)
	}
	if cluster.PeerList() != nil {
		t.Errorf("empty -peers parsed to %v", cluster.PeerList())
	}
	if cluster.StoreMaxBytes != 256<<20 {
		t.Errorf("store cap default = %d", cluster.StoreMaxBytes)
	}
}

func TestValidation(t *testing.T) {
	if _, err := ValidateATPGWorkers(-1); err == nil {
		t.Error("ValidateATPGWorkers accepted -1")
	}
	if n, err := ValidateATPGWorkers(0); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Errorf("ValidateATPGWorkers(0) = %d, %v; want GOMAXPROCS", n, err)
	}
	if n, err := ValidateATPGWorkers(3); err != nil || n != 3 {
		t.Errorf("ValidateATPGWorkers(3) = %d, %v", n, err)
	}
}

func TestNormalizeEndpoint(t *testing.T) {
	cases := map[string]string{
		"":                        "",
		"  ":                      "",
		"127.0.0.1:8344":          "http://127.0.0.1:8344",
		"http://a:1/":             "http://a:1",
		"https://b.example:443//": "https://b.example:443",
	}
	for in, want := range cases {
		if got := NormalizeEndpoint(in); got != want {
			t.Errorf("NormalizeEndpoint(%q) = %q, want %q", in, got, want)
		}
	}
}
