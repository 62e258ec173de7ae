package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if t1 != Time(5000) {
		t.Fatalf("Add: got %d, want 5000", t1)
	}
	if d := t1.Sub(t0); d != 5*Millisecond {
		t.Fatalf("Sub: got %v, want 5ms", d)
	}
	if ms := (30 * Millisecond).Millis(); ms != 30 {
		t.Fatalf("Millis: got %v, want 30", ms)
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds: got %v, want 2", s)
	}
	if d := Millis(1.5); d != 1500 {
		t.Fatalf("Millis(1.5): got %d, want 1500", d)
	}
}

func TestMillisPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Millis(-1) did not panic")
		}
	}()
	Millis(-1)
}

func TestDurationString(t *testing.T) {
	if s := (1500 * Microsecond).String(); s != "1.5ms" {
		t.Fatalf("String: got %q, want 1.5ms", s)
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.Run()
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock: got %v, want 30", k.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	k.Run()
}

func TestProcAdvance(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Spawn("p", 0, func(p *Proc) {
		at = append(at, p.Now())
		p.Advance(10 * Millisecond)
		at = append(at, p.Now())
		p.Advance(0) // no-op
		at = append(at, p.Now())
	})
	k.Run()
	want := []Time{0, 10000, 10000}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at[%d] = %v, want %v", i, at[i], want[i])
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	mk := func(name string, step Duration) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				trace = append(trace, fmt.Sprintf("%s@%d", name, p.Now()))
				p.Advance(step)
			}
		}
	}
	k.Spawn("a", 0, mk("a", 10))
	k.Spawn("b", 0, mk("b", 15))
	k.Run()
	want := "[a@0 b@0 a@10 b@15 a@20]"
	if got := fmt.Sprint(trace[:5]); got != want {
		t.Fatalf("interleaving: got %v, want %v", got, want)
	}
}

func TestEventWaitAndFire(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var waited Duration
	k.Spawn("waiter", 0, func(p *Proc) {
		waited = ev.Wait(p)
	})
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(25)
		ev.Fire()
	})
	k.Run()
	if waited != 25 {
		t.Fatalf("waited %v, want 25", waited)
	}
	if !ev.Fired() || ev.FiredAt() != 25 {
		t.Fatalf("event state: fired=%v at=%v", ev.Fired(), ev.firedAt)
	}
}

func TestEventWaitAfterFireIsFree(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var waited Duration = -1
	k.Spawn("p", 0, func(p *Proc) {
		ev.Fire()
		p.Advance(10)
		waited = ev.Wait(p)
	})
	k.Run()
	if waited != 0 {
		t.Fatalf("wait on fired event took %v, want 0", waited)
	}
}

func TestEventMultipleWaiters(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	released := 0
	for i := 0; i < 5; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
			ev.Wait(p)
			released++
		})
	}
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(100)
		if ev.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", ev.Waiters())
		}
		ev.Fire()
	})
	k.Run()
	if released != 5 {
		t.Fatalf("released = %d, want 5", released)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire() // kernel at time 0; Fire outside Run is fine for this test
	defer func() {
		if recover() == nil {
			t.Fatal("double Fire did not panic")
		}
	}()
	ev.Fire()
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	k.Spawn("stuck", 0, func(p *Proc) { ev.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked run did not panic")
		}
	}()
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := []Time{}
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	if more := k.RunUntil(25); !more {
		t.Fatal("RunUntil reported no remaining events")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after Run, want all four", fired)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, 0, func(p *Proc) {
			q.Sleep(p)
			order = append(order, name)
		})
	}
	k.Spawn("waker", 0, func(p *Proc) {
		p.Advance(10)
		q.WakeOne()
		p.Advance(10)
		q.WakeAll()
	})
	k.Run()
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("wake order: %v", order)
	}
}

func TestWakeOneOnEmptyQueue(t *testing.T) {
	k := NewKernel()
	q := NewWaitQueue(k)
	if q.WakeOne() {
		t.Fatal("WakeOne on empty queue reported success")
	}
}

func TestSemaphore(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Advance(10)
			inside--
			sem.Release()
		})
	}
	k.Run()
	if maxInside != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxInside)
	}
	if k.Now() != 30 {
		t.Fatalf("end time = %v, want 30 (3 batches of 10)", k.Now())
	}
	if sem.Count() != 2 {
		t.Fatalf("final count = %d, want 2", sem.Count())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 1)
	if !sem.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if sem.TryAcquire() {
		t.Fatal("second TryAcquire succeeded")
	}
	sem.Release()
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestSpawnDuringRun(t *testing.T) {
	k := NewKernel()
	var childRan bool
	k.Spawn("parent", 0, func(p *Proc) {
		p.Advance(5)
		k.Spawn("child", p.Now().Add(5), func(c *Proc) {
			childRan = true
			if c.Now() != 10 {
				t.Errorf("child started at %v, want 10", c.Now())
			}
		})
		p.Advance(20)
	})
	k.Run()
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestYield(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", 0, func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", 0, func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	if fmt.Sprint(order) != "[a1 b1 a2]" {
		t.Fatalf("yield order: %v", order)
	}
}

func TestProcName(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("worker-7", 0, func(p *Proc) {})
	if p.Name() != "worker-7" {
		t.Fatalf("Name: got %q", p.Name())
	}
	if p.Kernel() != k {
		t.Fatal("Kernel accessor mismatch")
	}
	k.Run()
}

// TestDeterminism runs a moderately complex random workload twice and
// requires byte-identical traces.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) string {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		ev := NewEvent(k)
		var trace []string
		for i := 0; i < 10; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), Time(rng.Intn(50)), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Advance(Duration(1 + (i*7+j*13)%29))
					trace = append(trace, fmt.Sprintf("%s:%d@%d", p.Name(), j, p.Now()))
				}
				if i == 3 {
					ev.Fire()
				}
				if i == 4 {
					ev.Wait(p)
					trace = append(trace, fmt.Sprintf("p4 woke @%d", p.Now()))
				}
			})
		}
		k.Run()
		return fmt.Sprint(trace)
	}
	a, b := runOnce(42), runOnce(42)
	if a != b {
		t.Fatalf("nondeterministic execution:\n%s\n%s", a, b)
	}
}

func TestHeapStress(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(1))
	var fired []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(100000))
		k.Schedule(at, func() { fired = append(fired, k.Now()) })
	}
	k.Run()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("heap order violated at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
	if len(fired) != 5000 {
		t.Fatalf("fired %d events, want 5000", len(fired))
	}
}

func TestEventOnFire(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var order []string
	ev.OnFire(func() { order = append(order, "cb1") })
	ev.OnFire(func() { order = append(order, "cb2") })
	k.Spawn("waiter", 0, func(p *Proc) {
		ev.Wait(p)
		order = append(order, "waiter")
	})
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(10)
		ev.Fire()
	})
	k.Run()
	if fmt.Sprint(order) != "[cb1 cb2 waiter]" {
		t.Fatalf("callbacks must run before waiters: %v", order)
	}
}

func TestEventOnFireAfterFired(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	ran := false
	ev.OnFire(func() { ran = true })
	if !ran {
		t.Fatal("OnFire on a fired event must run immediately")
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	if more := k.RunUntil(25); more {
		t.Fatal("RunUntil reported remaining events")
	}
	if k.Now() != 25 {
		t.Fatalf("clock after RunUntil(25) = %v, want 25", k.Now())
	}
	// A deadline in the past must not move the clock backwards.
	if k.RunUntil(20); k.Now() != 25 {
		t.Fatalf("clock after RunUntil(20) = %v, want 25 (no rewind)", k.Now())
	}
	// Events scheduled at the deadline itself still run.
	ran := false
	k.Schedule(40, func() { ran = true })
	k.RunUntil(40)
	if !ran || k.Now() != 40 {
		t.Fatalf("deadline event: ran=%v clock=%v, want true/40", ran, k.Now())
	}
}

func TestRunUntilBoundsAdvanceFastPath(t *testing.T) {
	k := NewKernel()
	var resumedAt Time = -1
	k.Spawn("p", 0, func(p *Proc) {
		p.Advance(100) // past the deadline; must stay queued, not jump the clock
		resumedAt = p.Now()
	})
	if more := k.RunUntil(30); !more {
		t.Fatal("resume event should remain queued")
	}
	if resumedAt != -1 {
		t.Fatalf("process resumed during RunUntil(30), at %v", resumedAt)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
	k.Run()
	if resumedAt != 100 {
		t.Fatalf("process resumed at %v, want 100", resumedAt)
	}
}

func TestDeadlockPanicNamesProcesses(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k).SetLabel("disk I/O completion")
	q := NewWaitQueue(k).SetLabel("a freed cache frame")
	k.Spawn("proc3", 0, func(p *Proc) { ev.Wait(p) })
	k.Spawn("proc7", 0, func(p *Proc) { q.Sleep(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked run did not panic")
		}
		derr, ok := r.(*DeadlockError)
		if !ok {
			t.Fatalf("panic value %T, want *DeadlockError", r)
		}
		if derr.Active != 2 || len(derr.Blocked) != 2 {
			t.Errorf("DeadlockError has Active=%d Blocked=%v, want 2 and 2 entries",
				derr.Active, derr.Blocked)
		}
		msg := derr.Error()
		for _, want := range []string{
			"2 process(es)",
			"proc3 (waiting on disk I/O completion)",
			"proc7 (waiting on a freed cache frame)",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock message %q missing %q", msg, want)
			}
		}
	}()
	k.Run()
}

func TestDeadlockPanicTruncatesLongList(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	for i := 0; i < 12; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) { ev.Wait(p) })
	}
	defer func() {
		derr, _ := recover().(*DeadlockError)
		if derr == nil {
			t.Fatal("expected *DeadlockError panic")
		}
		if len(derr.Blocked) != 8 {
			t.Errorf("DeadlockError records %d processes, want 8", len(derr.Blocked))
		}
		if msg := derr.Error(); !strings.Contains(msg, "… and 4 more") {
			t.Errorf("deadlock message %q should truncate after 8 entries", msg)
		}
	}()
	k.Run()
}

// TestProcPanicReachesRun: a panic in a process body surfaces from the
// Run call that stepped the process, carrying the body's panic value, so
// a recover around Run (Engine.Run's flight-recorder defer) sees it.
func TestProcPanicReachesRun(t *testing.T) {
	type boom struct{ at Time }
	k := NewKernel()
	k.Spawn("bystander", 0, func(p *Proc) { p.Advance(20) })
	k.Spawn("crasher", 0, func(p *Proc) {
		p.Advance(5)
		panic(boom{at: p.Now()})
	})
	defer func() {
		r := recover()
		if r != (boom{at: 5}) {
			t.Fatalf("recovered %#v from Run, want the body's boom{at: 5}", r)
		}
		if k.Now() != 5 {
			t.Errorf("clock at %v after the panic, want 5", k.Now())
		}
	}()
	k.Run()
	t.Fatal("Run returned normally past a panicking process")
}

// TestProcGoexitReachesRun: runtime.Goexit in a process body (what
// t.Fatal does) ends the goroutine that called Run, running its defers,
// instead of silently ending only the process.
func TestProcGoexitReachesRun(t *testing.T) {
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		k := NewKernel()
		k.Spawn("quitter", 0, func(p *Proc) {
			p.Yield()
			runtime.Goexit()
		})
		k.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally past a process that called runtime.Goexit")
	}
}

// TestFinishedProcReleasesCoroutine: once a process ends, the kernel
// drops its coroutine handles, so a finished run retains no coroutine
// state per process.
func TestFinishedProcReleasesCoroutine(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", 0, func(p *Proc) { p.Advance(3) })
	k.Run()
	if !p.done || p.next != nil || p.yield != nil {
		t.Fatalf("finished process keeps done=%v next=%v yield=%v", p.done, p.next != nil, p.yield != nil)
	}
}

// waked records Wake calls for Waiter tests.
type waked struct {
	log   *[]string
	label string
}

func (w *waked) Wake() { *w.log = append(*w.log, w.label) }

func TestScheduleWake(t *testing.T) {
	k := NewKernel()
	var log []string
	k.ScheduleWake(20, &waked{&log, "b"})
	k.ScheduleWake(10, &waked{&log, "a"})
	k.AfterWake(30, &waked{&log, "c"})
	k.Run()
	if fmt.Sprint(log) != "[a b c]" {
		t.Fatalf("wake order: %v", log)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestScheduleWakeInPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleWake in the past did not panic")
			}
		}()
		k.ScheduleWake(5, &waked{new([]string), "x"})
	})
	k.Run()
}

func TestEventAddWaiterOrdering(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var log []string
	ev.AddWaiter(&waked{&log, "c1"})
	ev.AddWaiter(&waked{&log, "c2"})
	ev.AddWaiter(&waked{&log, "c3"})
	k.Spawn("waiter", 0, func(p *Proc) {
		ev.Wait(p)
		log = append(log, "proc")
	})
	k.Spawn("firer", 0, func(p *Proc) {
		p.Advance(5)
		ev.Fire()
	})
	k.Run()
	// Continuations fire in registration order, before any process.
	if fmt.Sprint(log) != "[c1 c2 c3 proc]" {
		t.Fatalf("wake order: %v", log)
	}
}

func TestEventAddWaiterAfterFired(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	var log []string
	ev.AddWaiter(&waked{&log, "late"})
	if fmt.Sprint(log) != "[late]" {
		t.Fatal("AddWaiter on a fired event must wake immediately")
	}
}

func TestParkEnqueueResume(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var log []string
	// proc parks itself; a continuation chain hands it to the event.
	p := k.Spawn("parked", 0, func(p *Proc) {
		p.Park("a continuation chain")
		log = append(log, fmt.Sprintf("woke@%d", p.Now()))
	})
	k.After(10, func() { ev.Enqueue(p) })
	k.After(20, func() { ev.Fire() })
	// A second proc resumed directly from kernel context.
	q := k.Spawn("resumed", 0, func(p *Proc) {
		p.Park("a direct resume")
		log = append(log, fmt.Sprintf("direct@%d", p.Now()))
	})
	k.After(5, func() { k.Resume(q) })
	k.Run()
	if fmt.Sprint(log) != "[direct@5 woke@20]" {
		t.Fatalf("log: %v", log)
	}
}

func TestEnqueueOnFiredEventPanics(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	p := k.Spawn("p", 0, func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on fired event did not panic")
		}
	}()
	ev.Enqueue(p)
}

// TestAdvanceFastPathOrdering pins that the in-place clock advance is
// observationally identical to a heap round trip: a process advancing
// alone (fast path) and one interleaving with scheduled events (slow
// path) see exactly the times the blocking semantics promise.
func TestAdvanceFastPathOrdering(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Schedule(15, func() { log = append(log, fmt.Sprintf("cb@%d", k.Now())) })
	k.Spawn("p", 0, func(p *Proc) {
		p.Advance(10) // nothing due before 10: fast path
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
		p.Advance(10) // crosses the callback at 15: must yield to it
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
		p.Advance(10) // heap empty again: fast path
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
	})
	k.Run()
	if fmt.Sprint(log) != "[p@10 cb@15 p@20 p@30]" {
		t.Fatalf("order: %v", log)
	}
}

func TestLabels(t *testing.T) {
	k := NewKernel()
	if got := NewEvent(k).Label(); got != "an event" {
		t.Errorf("default event label = %q", got)
	}
	if got := NewEvent(k).SetLabel("barrier release").Label(); got != "barrier release" {
		t.Errorf("event label = %q", got)
	}
	var ev Event
	ev.Init(k, "disk I/O completion")
	if got := ev.Label(); got != "disk I/O completion" {
		t.Errorf("embedded event label = %q", got)
	}
	if got := NewWaitQueue(k).Label(); got != "a wait queue" {
		t.Errorf("default queue label = %q", got)
	}
	if got := NewWaitQueue(k).SetLabel("write-behind drain").Label(); got != "write-behind drain" {
		t.Errorf("queue label = %q", got)
	}
}
