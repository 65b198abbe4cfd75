package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// checkNoLeak fails the test if the goroutine count does not settle back to
// its starting value — the pool must join every worker before returning.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestForEachRunsEveryItem(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		n := 57
		hits := make([]atomic.Int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		out, err := Map(context.Background(), workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachFirstErrorWinsAndDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), 4, 10_000, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The drain must skip most of the remaining work rather than running all
	// 10k items to completion after the failure.
	if n := ran.Load(); n == 10_000 {
		t.Error("no items were skipped after the first error")
	}
	checkNoLeak(t, before)
}

func TestForEachPanicBecomesTypedError(t *testing.T) {
	before := runtime.NumGoroutine()
	err := ForEach(context.Background(), 3, 50, func(i int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v, want kaboom", pe.Value)
	}
	if !strings.Contains(pe.Error(), "kaboom") || len(pe.Stack) == 0 {
		t.Errorf("panic error lacks value or stack: %v", pe)
	}
	checkNoLeak(t, before)
}

func TestForEachSequentialPanicCaptured(t *testing.T) {
	err := ForEach(context.Background(), 1, 3, func(i int) error {
		panic(fmt.Sprintf("seq-%d", i))
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "seq-0" {
		t.Errorf("sequential path did not stop at the first panic: %v", pe.Value)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	started := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 2, 1_000_000, func(i int) error {
			select {
			case started <- struct{}{}:
			default:
			}
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if n := ran.Load(); n == 1_000_000 {
		t.Error("cancellation did not stop the run early")
	}
	checkNoLeak(t, before)
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 1, 10, func(int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(context.Background(), 4, 100, func(i int) (int, error) {
		if i == 50 {
			return 0, errors.New("mid-map failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if out != nil {
		t.Fatalf("partial results returned: %v", out[:5])
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

// TestForEachManyRoundsNoLeak hammers the pool the way the simulator does —
// one fan-out per hourly step, tens of thousands of steps — and checks the
// goroutine count stays flat.
func TestForEachManyRoundsNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 2_000; round++ {
		if err := ForEach(context.Background(), 4, 32, func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	checkNoLeak(t, before)
}

func TestRunnerRunsEveryItemAndPropagatesErrors(t *testing.T) {
	r := NewRunner(4)
	if r.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", r.Workers())
	}
	var hits [64]atomic.Int64
	if err := r.ForEach(context.Background(), len(hits), func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("item %d ran %d times, want 1", i, got)
		}
	}
	sentinel := errors.New("boom")
	if err := r.ForEach(context.Background(), 8, func(i int) error {
		if i == 3 {
			return sentinel
		}
		return nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := r.ForEach(context.Background(), 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var perr *PanicError
	if err := r.ForEach(context.Background(), 1, func(int) error { panic("pow") }); !errors.As(err, &perr) {
		t.Fatalf("panic not typed: %v", err)
	}
}

// TestRunnerFlushMatchesForEachTelemetry pins the Runner's contract: after
// Flush, the registry counters and width histogram hold exactly what the
// same batches run through the per-call-instrumented ForEach would have
// produced.
func TestRunnerFlushMatchesForEachTelemetry(t *testing.T) {
	ctx := context.Background()
	nop := func(int) error { return nil }
	type shot struct{ batches, tasks, hcount int64 }
	grab := func() shot {
		return shot{
			batches: metricBatches.Value(),
			tasks:   metricTasks.Value(),
			hcount:  metricWidth.Count(),
		}
	}

	// Reference: per-call instrumentation for 3 batches of 5 at width 2
	// and 2 batches of 1 (clamped to width 1).
	run := func(fe func(n, workers int)) (d shot) {
		before := grab()
		for i := 0; i < 3; i++ {
			fe(5, 2)
		}
		for i := 0; i < 2; i++ {
			fe(1, 2)
		}
		after := grab()
		return shot{
			batches: after.batches - before.batches,
			tasks:   after.tasks - before.tasks,
			hcount:  after.hcount - before.hcount,
		}
	}

	ref := run(func(n, workers int) {
		if err := ForEach(ctx, workers, n, nop); err != nil {
			t.Fatal(err)
		}
	})

	r := NewRunner(2)
	got := run(func(n, _ int) {
		if err := r.ForEach(ctx, n, nop); err != nil {
			t.Fatal(err)
		}
	})
	if got.batches != 0 || got.tasks != 0 || got.hcount != 0 {
		t.Fatalf("Runner published before Flush: %+v", got)
	}
	before := grab()
	r.Flush()
	r.Flush() // idempotent between batches
	after := grab()
	got = shot{
		batches: after.batches - before.batches,
		tasks:   after.tasks - before.tasks,
		hcount:  after.hcount - before.hcount,
	}
	if got != ref {
		t.Fatalf("Flush deltas %+v != per-call ForEach deltas %+v", got, ref)
	}
}

// BenchmarkForEachTrivial measures the pool's per-item cost: 100,000 items
// that each store one byte, one worker per CPU (run it with -cpu 2), under
// a cancelable context as the pipeline's callers pass.
func BenchmarkForEachTrivial(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make([]byte, 100_000)
	for range b.N {
		if err := ForEach(ctx, 0, len(out), func(i int) error {
			out[i] = byte(i)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
