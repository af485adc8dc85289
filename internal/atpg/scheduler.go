package atpg

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logic"
)

// podemAttempt is the outcome of one speculative PODEM run: the search
// status, its backtrack count, and (on success) a snapshot of the input
// assignment. ran distinguishes a real result from a slot the worker
// skipped on a saturation or stop signal.
type podemAttempt struct {
	status     podemStatus
	backtracks int
	assign     []logic.Value
	ran        bool
}

// podemSchedulerChunk is how many residual faults one work queue claim
// covers: small enough to balance across workers, large enough that the
// claim counter is not contended.
const podemSchedulerChunk = 8

// podemScheduler runs PODEM searches fault-parallel while keeping the
// generation result bit-identical to the serial fault order. The
// determinism contract:
//
//   - Workers only execute the PODEM search itself, which is a pure
//     function of (circuit, fault, backtrack limit, SCOAP) — no rng, no
//     shared mutable state. Each worker owns one reusable podem engine.
//   - The committer (the generation goroutine) consumes results strictly
//     in canonical fault-index order; every pattern fill, rng draw,
//     credit, and observer callback (except OnPodemChunk) happens there.
//   - Workers may skip a fault whose saturation flag the committer
//     published after a buffer flush; saturation is monotone, so the
//     committer is guaranteed to skip that fault too and never reads the
//     empty slot. If it ever does (defensive), it recomputes inline —
//     the same deterministic result.
//
// Memory visibility: a worker publishes a chunk's slots by closing the
// chunk's done channel; the committer reads them only after receiving
// from that channel.
//
// A panic on a worker (in the search or in OnPodemChunk) does not unwind
// the process from a goroutine nobody can recover: the worker keeps the
// first panic as a *WorkerPanicError, stops speculation and still
// publishes its chunk, and the committer returns that error.
type podemScheduler struct {
	env      *podemEnv
	faults   []Fault
	residual []int
	ob       Observer

	next     atomic.Int64
	stopped  atomic.Bool
	sat      []atomic.Bool // per fault index: quota met, skip speculation
	slots    []podemAttempt
	done     []chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
	panicked atomic.Pointer[WorkerPanicError] // the first worker panic
}

// WorkerPanicError is the error generation returns when a PODEM
// scheduler worker panicked: Value is what it panicked with, Stack the
// worker's stack at the panic.
type WorkerPanicError struct {
	Value any
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("atpg: PODEM worker panicked: %v", e.Value)
}

func newPodemScheduler(env *podemEnv, faults []Fault, residual []int, workers int, ob Observer) *podemScheduler {
	nChunks := (len(residual) + podemSchedulerChunk - 1) / podemSchedulerChunk
	if workers > nChunks {
		workers = nChunks
	}
	s := &podemScheduler{
		env:      env,
		faults:   faults,
		residual: residual,
		ob:       ob,
		sat:      make([]atomic.Bool, len(faults)),
		slots:    make([]podemAttempt, len(residual)),
		done:     make([]chan struct{}, nChunks),
	}
	for i := range s.done {
		s.done[i] = make(chan struct{})
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

func (s *podemScheduler) worker() {
	defer s.wg.Done()
	p := s.env.newPodem(false)
	for {
		ci := int(s.next.Add(1)) - 1
		if ci >= len(s.done) {
			return
		}
		s.runChunk(p, ci)
	}
}

// runChunk searches chunk ci with p and publishes it. A panic is kept
// (the first one wins) and stops speculation; the chunk is published
// regardless, and every later chunk is published empty because the stop
// flag skips its faults, so p is never run again after a panic.
func (s *podemScheduler) runChunk(p *podem, ci int) {
	published := false
	defer func() {
		if r := recover(); r != nil {
			s.panicked.CompareAndSwap(nil, &WorkerPanicError{Value: r, Stack: debug.Stack()})
			s.stopped.Store(true)
		}
		if !published {
			close(s.done[ci])
		}
	}()
	start := ci * podemSchedulerChunk
	end := start + podemSchedulerChunk
	if end > len(s.residual) {
		end = len(s.residual)
	}
	var t0 time.Time
	if s.ob.OnPodemChunk != nil {
		t0 = time.Now()
	}
	for r := start; r < end; r++ {
		if s.stopped.Load() {
			break
		}
		i := s.residual[r]
		if s.sat[i].Load() {
			continue
		}
		st := p.run(s.faults[i])
		att := podemAttempt{status: st, backtracks: p.backtracks, ran: true}
		if st == podemSuccess {
			att.assign = append([]logic.Value(nil), p.assign...)
		}
		s.slots[r] = att
	}
	close(s.done[ci])
	published = true
	if s.ob.OnPodemChunk != nil {
		s.ob.OnPodemChunk(start, end-start, time.Since(t0))
	}
}

// attempt returns the PODEM result for residual position r (fault index
// i), waiting for the owning chunk if a worker is still on it. inline is
// the committer's own engine, used when the slot was skipped.
// A worker panic seen by then is returned as the error instead.
func (s *podemScheduler) attempt(r, i int, inline *podem) (podemAttempt, error) {
	<-s.done[r/podemSchedulerChunk]
	if err := s.err(); err != nil {
		return podemAttempt{}, err
	}
	if att := s.slots[r]; att.ran {
		return att, nil
	}
	st := inline.run(s.faults[i])
	return podemAttempt{status: st, backtracks: inline.backtracks, assign: inline.assign, ran: true}, nil
}

// err returns the first worker panic as an error, or nil.
func (s *podemScheduler) err() error {
	if p := s.panicked.Load(); p != nil {
		return p
	}
	return nil
}

// publishSaturation lets workers skip faults the committer has already
// credited to quota. Flags are only ever set, never cleared, which is
// what makes worker-side skipping sound.
func (s *podemScheduler) publishSaturation(detCount []int, nDetect int) {
	for _, i := range s.residual {
		if detCount[i] >= nDetect && !s.sat[i].Load() {
			s.sat[i].Store(true)
		}
	}
}

// stop asks workers to abandon speculation (cap reached or the committer
// is bailing out); in-flight PODEM runs finish, queued faults are skipped.
func (s *podemScheduler) stop() { s.stopped.Store(true) }

// shutdown stops speculation and waits for every worker to exit, so no
// observer callback outlives the generation call, then returns the first
// worker panic, if any. Idempotent; also run via defer on error paths.
func (s *podemScheduler) shutdown() error {
	s.stopped.Store(true)
	s.once.Do(func() { s.wg.Wait() })
	return s.err()
}
