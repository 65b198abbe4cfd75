// Package parallel is the dependency-free worker pool behind CosmicDance's
// fan-out stages: the per-satellite physics step, the per-track cleaning
// pass, and the per-track association sweep.
//
// The package is built around one invariant: parallel execution must be
// indistinguishable from sequential execution. Work items are addressed by
// index, results land in index-order slots, and nothing about scheduling or
// worker count can leak into the output. Determinism therefore has to be
// arranged by the caller's decomposition (independent items, per-item RNG
// streams) — this package only guarantees it never un-arranges it.
//
// Error semantics: the first error (or captured panic) wins, the remaining
// workers drain promptly via context cancellation, and every goroutine is
// joined before the call returns — no leaks, no partial writes observable
// after return.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cosmicdance/internal/obs"
)

// Pool telemetry. Counting is deliberately coarse — one batch-sized Add per
// ForEach call plus one width observation — so the hot loop itself carries
// no instrumentation and the telemetry-overhead gate holds trivially.
var (
	metricTasks   = obs.Default().Counter("parallel_tasks_total")
	metricBatches = obs.Default().Counter("parallel_batches_total")
	metricPanics  = obs.Default().Counter("parallel_panics_total")
	metricWidth   = obs.Default().Histogram("parallel_batch_workers", []float64{1, 2, 4, 8, 16, 32, 64})
)

// Workers resolves a Parallelism knob to a concrete worker count: values
// below 1 mean "one worker per available CPU" (GOMAXPROCS), anything else is
// taken literally.
func Workers(parallelism int) int {
	if parallelism < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// PanicError is a worker panic captured and returned as an error, stack
// included, so a panicking work item cannot crash the process from a
// goroutine the caller never sees.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (workers <= 0 means GOMAXPROCS). It returns the first error any
// invocation produced, a *PanicError if an invocation panicked, or ctx.Err()
// if the context was cancelled first. On error the remaining items are
// skipped, but every in-flight invocation completes and every worker is
// joined before ForEach returns.
//
// With workers == 1 (or n == 1) the items run inline on the calling
// goroutine in index order — the sequential special case spawns nothing.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	metricBatches.Inc()
	metricTasks.Add(int64(n))
	metricWidth.Observe(float64(workers))
	return forEach(ctx, workers, n, fn)
}

// forEach is ForEach after knob resolution and telemetry: workers is
// already clamped to [1, n] and nothing here counts anything.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers == 1 {
		return sequential(ctx, n, fn)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next unclaimed item index
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel() // drain: workers stop claiming new items
		})
	}
	// Each worker polls the Done channel with a non-blocking receive before
	// claiming an item: ctx.Err on a cancelable context takes its mutex, and
	// the workers claiming one small item each would contend on it.
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := protect(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Runner amortizes pool telemetry for loops that fan out many times per
// logical operation — the constellation simulator calls into the pool
// once per simulated hour, where even three atomic adds per call are
// measurable against a ~2µs physics step. A Runner tallies batches and
// tasks in plain locals and Flush publishes the totals in one shot, so
// the final counter and histogram state is identical to per-call
// ForEach instrumentation at none of the per-step cost.
//
// A Runner is coordinator state like the loop it serves: ForEach and
// Flush must be called from one goroutine. Flush is idempotent between
// batches; call it when the operation completes (a dropped Flush loses
// telemetry, never correctness).
type Runner struct {
	workers int
	batches map[int]int64 // clamped width -> batch count
	tasks   int64
}

// NewRunner resolves a Parallelism knob (see Workers) into a Runner.
func NewRunner(parallelism int) *Runner {
	return &Runner{workers: Workers(parallelism), batches: make(map[int]int64)}
}

// Workers returns the resolved worker count the Runner fans out to.
func (r *Runner) Workers() int { return r.workers }

// ForEach is ForEach(ctx, r.Workers(), n, fn) with the telemetry
// deferred to Flush.
func (r *Runner) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := r.workers
	if w > n {
		w = n
	}
	r.batches[w]++
	r.tasks += int64(n)
	return forEach(ctx, w, n, fn)
}

// Flush publishes the tally accumulated since the last Flush and resets
// it. Counter adds commute, so the map's iteration order cannot reach
// any output.
func (r *Runner) Flush() {
	var batches int64
	for w, c := range r.batches {
		metricWidth.ObserveN(float64(w), c)
		batches += c
	}
	if batches == 0 {
		return
	}
	metricBatches.Add(batches)
	metricTasks.Add(r.tasks)
	clear(r.batches)
	r.tasks = 0
}

// Stream runs produce(i) for every i in [0, n) across at most workers
// goroutines and delivers every result, in index order, to consume on the
// calling goroutine. It is the pipelined counterpart of Map for work too
// large to materialize: at most workers results are in flight at any moment
// (claim gating — a worker may only start index i once index i-workers has
// been consumed), so memory is O(workers), not O(n), while production and
// consumption overlap.
//
// consume always observes indices 0, 1, 2, … with no gaps, exactly as a
// sequential loop would. Error semantics match ForEach: the first produce
// error (or *PanicError) wins and cancels the stream, a consume error stops
// consumption and drains the workers, and every goroutine is joined before
// Stream returns. With workers == 1 everything runs inline on the calling
// goroutine.
func Stream[T any](ctx context.Context, workers, n int, produce func(i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	metricBatches.Inc()
	metricTasks.Add(int64(n))
	metricWidth.Observe(float64(workers))

	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := protectValue(produce, i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each in-flight index owns slot i%window exclusively: claim gating
	// guarantees index i is only produced after index i-window was consumed,
	// so the 1-buffered send below can never block and two producers can
	// never race on one slot.
	window := workers
	slots := make([]chan T, window)
	for i := range slots {
		slots[i] = make(chan T, 1)
	}
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tokens:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := protectValue(produce, i)
				if err != nil {
					fail(err)
					return
				}
				slots[i%window] <- v
			}
		}()
	}

	var consumeErr error
	parentDone := false
loop:
	for i := 0; i < n; i++ {
		select {
		case v := <-slots[i%window]:
			if err := consume(i, v); err != nil {
				consumeErr = err
				break loop
			}
			tokens <- struct{}{} // never blocks: at most window outstanding
		case <-ctx.Done():
			parentDone = true
			break loop
		}
	}
	cancel()
	wg.Wait()
	switch {
	case consumeErr != nil:
		return consumeErr
	case firstErr != nil:
		return firstErr
	case parentDone:
		return context.Cause(ctx)
	default:
		return nil
	}
}

// catch is deferred by the functions below: it converts a panic in
// progress into a *PanicError stored in *err.
func catch(err *error) {
	if r := recover(); r != nil {
		metricPanics.Inc()
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// protectValue runs fn(i), converting a panic into a *PanicError.
func protectValue[T any](fn func(int) (T, error), i int) (v T, err error) {
	defer catch(&err)
	return fn(i)
}

// protect runs fn(i), converting a panic into a *PanicError.
func protect(fn func(int) error, i int) (err error) {
	defer catch(&err)
	return fn(i)
}

// sequential runs fn(0) … fn(n-1) in order on the calling goroutine under
// one deferred recover for the whole batch: the width-1 simulator step runs
// every block of satellites of every hour through here, about 66k items in a
// week of a 100k-satellite fleet, so a recover per item is paid many times.
func sequential(ctx context.Context, n int, fn func(int) error) (err error) {
	defer catch(&err)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines and
// collects the results in index order: out[i] is fn(i)'s value regardless of
// which worker computed it or when. Error semantics match ForEach; on error
// the partial results are discarded and Map returns nil.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
