package scanpower

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/probe"
	"repro/internal/telemetry"
)

// sizedResult is a result that resultBytes charges exactly n bytes.
func sizedResult(n int) *atpg.Result { return &atpg.Result{Detected: make([]bool, n)} }

// getKey looks fp up in pc under ctx, generating res on a miss, and
// reports whether it hit.
func getKey(ctx context.Context, t *testing.T, pc *patternCache, fp uint64, res *atpg.Result) bool {
	t.Helper()
	got, hit, err := pc.get(ctx, patternKey{fp: fp}, func() (*atpg.Result, error) { return res, nil })
	if err != nil {
		t.Fatalf("get %d: %v", fp, err)
	}
	if !hit && got != res {
		t.Fatalf("get %d: a miss returned another result than it generated", fp)
	}
	return hit
}

// resident reports whether fp has a settled entry in pc.
func resident(pc *patternCache, fp uint64) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.m[patternKey{fp: fp}]
	return ok && e.elem != nil
}

// checkResident: the cache holds at most its budget, its byte count is
// the sum of its entries' charges, and every entry on the recency list
// is the map's entry for its key.
func checkResident(t *testing.T, pc *patternCache) {
	t.Helper()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var sum int64
	for el := pc.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*patternEntry)
		sum += e.size
		if pc.m[e.key] != e {
			t.Errorf("key %d is on the recency list but not in the map", e.key.fp)
		}
	}
	if sum != pc.bytes {
		t.Errorf("resident bytes %d, but the entries charge %d", pc.bytes, sum)
	}
	if pc.bytes > pc.budget {
		t.Errorf("resident bytes %d exceed the budget %d", pc.bytes, pc.budget)
	}
}

// TestPatternCacheBudget fills a small budget with entries of mixed sizes:
// after every fill the cache holds at most its budget, an entry larger
// than the whole budget is served but neither kept nor evicting, and the
// CacheFill events account for every eviction and resident byte.
func TestPatternCacheBudget(t *testing.T) {
	pc := patternCache{budget: 1000}
	var evicted int
	var delta int64
	ctx, sc := probe.Open(context.Background(), func(_ *probe.Scope, ev probe.Event) {
		if ev.Kind == probe.CacheFill {
			evicted += ev.N
			delta += ev.Bytes
		}
	}, "fill")
	defer sc.Close()

	const fills = 40
	for fp := uint64(1); fp <= fills; fp++ {
		getKey(ctx, t, &pc, fp, sizedResult(50+int(fp*37%350)))
		checkResident(t, &pc)
	}
	if evicted == 0 {
		t.Fatal("40 fills of up to 400 bytes under a 1000-byte budget evicted nothing")
	}
	before := len(pc.m)
	getKey(ctx, t, &pc, 99, sizedResult(1500))
	checkResident(t, &pc)
	if resident(&pc, 99) || len(pc.m) != before {
		t.Errorf("an entry over the whole budget was kept or evicted others: %d entries, want %d", len(pc.m), before)
	}
	if delta != pc.bytes || evicted != fills-len(pc.m) {
		t.Errorf("CacheFill events report %d evictions and %d bytes, want %d and %d",
			evicted, delta, fills-len(pc.m), pc.bytes)
	}
}

// TestPatternCacheHitRefreshesRecency: a hit makes its entry the most
// recently used, so the next eviction takes the least recently used
// entry instead; the evicted key then regenerates as a miss.
func TestPatternCacheHitRefreshesRecency(t *testing.T) {
	ctx := context.Background()
	pc := patternCache{budget: 300}
	for fp := uint64(1); fp <= 3; fp++ {
		getKey(ctx, t, &pc, fp, sizedResult(100))
	}
	if !getKey(ctx, t, &pc, 1, sizedResult(100)) {
		t.Fatal("a resident key missed")
	}
	getKey(ctx, t, &pc, 4, sizedResult(100))
	checkResident(t, &pc)
	if !resident(&pc, 1) || resident(&pc, 2) {
		t.Fatalf("after a hit on 1, the fill of 4 kept 1=%v and 2=%v, want 1 kept and 2 evicted",
			resident(&pc, 1), resident(&pc, 2))
	}
	if getKey(ctx, t, &pc, 2, sizedResult(100)) {
		t.Error("an evicted key was served as a hit instead of regenerating")
	}
	if !resident(&pc, 2) || resident(&pc, 3) {
		t.Error("the regenerated key did not replace the least recently used one")
	}
}

// TestPatternCacheInFlightNotEvicted: fills that overflow the budget never
// evict an entry still generating. A duplicate waiting on it gets its
// result as a hit once it settles.
func TestPatternCacheInFlightNotEvicted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pc := patternCache{budget: 100}
	want := sizedResult(50)
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		res, hit, err := pc.get(ctx, patternKey{fp: 1}, func() (*atpg.Result, error) {
			close(started)
			<-release
			return want, nil
		})
		if err == nil && (hit || res != want) {
			err = errors.New("the generating caller did not get its own result")
		}
		errs <- err
	}()
	<-started
	go func() {
		defer wg.Done()
		res, hit, err := pc.get(ctx, patternKey{fp: 1}, func() (*atpg.Result, error) {
			return nil, errors.New("a duplicate of an in-flight key regenerated")
		})
		if err == nil && (!hit || res != want) {
			err = errors.New("the duplicate did not get the in-flight result as a hit")
		}
		errs <- err
	}()
	for fp := uint64(2); fp <= 5; fp++ {
		getKey(ctx, t, &pc, fp, sizedResult(100))
		checkResident(t, &pc)
		pc.mu.Lock()
		_, ok := pc.m[patternKey{fp: 1}]
		pc.mu.Unlock()
		if !ok {
			t.Fatalf("the fill of %d evicted the in-flight entry", fp)
		}
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	checkResident(t, &pc)
	if !resident(&pc, 1) || resident(&pc, 5) {
		t.Error("the settled entry was not admitted as the most recently used one")
	}
}

// TestRunAllTableIEvictsNothing: one pass over all twelve Table I
// circuits fits the pattern cache's budget, so a one-pass run
// regenerates nothing, and the Recorder's cache series match the cache.
func TestRunAllTableIEvictsNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := NewEngine(DefaultConfig())
	eng.Hooks = NewRecorder(reg, nil).Hooks()
	names := BenchmarkNames()
	if _, err := eng.RunAll(context.Background(), names); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n := snap[MetricCacheEvictions]; n != 0 {
		t.Errorf("%s = %v after one Table I pass, want 0", MetricCacheEvictions, n)
	}
	if len(eng.cache.m) != len(names) {
		t.Errorf("cache holds %d entries after one Table I pass, want %d", len(eng.cache.m), len(names))
	}
	if b := snap[MetricCacheBytes]; b != float64(eng.cache.bytes) || b <= 0 {
		t.Errorf("%s = %v, want the cache's %d resident bytes", MetricCacheBytes, b, eng.cache.bytes)
	}
	t.Logf("Table I pattern sets charge %d bytes of the %d-byte budget", eng.cache.bytes, patternCacheBudget)
}

// TestEngineWorkerPanicFailsCompare: a panic on an ATPG scheduler worker
// (here in OnPodemChunk, which runs on the worker's goroutine) fails the
// Compare with an error instead of killing the process, and leaves no
// cache entry behind, so the next Compare of the circuit regenerates and
// succeeds.
func TestEngineWorkerPanicFailsCompare(t *testing.T) {
	c, err := Benchmark("s344")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ATPG.Workers = 2
	eng := NewEngine(cfg)
	var fired atomic.Bool
	eng.Hooks.OnPodemChunk = func(string, int, int, time.Duration) {
		if fired.CompareAndSwap(false, true) {
			panic("injected worker panic")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err = eng.Compare(ctx, c)
	if !fired.Load() {
		t.Fatal("no PODEM chunk ran on a scheduler worker")
	}
	var wp *atpg.WorkerPanicError
	if !errors.As(err, &wp) || wp.Value != "injected worker panic" {
		t.Fatalf("Compare error = %v, want the worker's panic as a *atpg.WorkerPanicError", err)
	}
	if _, err := eng.Compare(ctx, c); err != nil {
		t.Fatalf("Compare after the worker panic: %v", err)
	}
	if hits, misses := eng.CacheStats(); hits != 0 || misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want the second Compare to regenerate (0, 1)", hits, misses)
	}
}
