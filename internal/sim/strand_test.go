package sim

import (
	"testing"

	"repro/internal/metrics"
)

// A strand models a periodic state machine: sleep, tick, repeat. The kernel
// must resume it at every timer expiry without any process activation.
func TestStrandPeriodicTicks(t *testing.T) {
	k := New()
	var ticks []Time
	s := k.NewStrand("ticker", StepFunc(func(s *Strand) {
		ticks = append(ticks, k.Now())
		if len(ticks) < 4 {
			s.WakeIn(10 * Us)
		}
	}), false)
	s.WakeAt(5 * Us)
	k.Run()
	want := []Time{5 * Us, 15 * Us, 25 * Us, 35 * Us}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if k.Activations() != 0 {
		t.Fatalf("activations = %d, want 0 (no process involved)", k.Activations())
	}
	if k.StrandResumes() != 4 {
		t.Fatalf("strand resumes = %d, want 4", k.StrandResumes())
	}
}

// Trigger discrimination: the step must be able to tell a sensitivity event
// from its own timer.
func TestStrandTriggerAndTimedOut(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	var fromEvent, fromTimer int
	k.NewStrand("s", StepFunc(func(s *Strand) {
		switch {
		case s.TimedOut():
			fromTimer++
		case s.Trigger() == ev:
			fromEvent++
			s.WakeIn(3 * Us)
		default:
			t.Errorf("unexpected trigger %v at %v", s.Trigger(), k.Now())
		}
	}), false, ev)
	k.Spawn("poker", func(p *Proc) {
		p.Wait(1 * Us)
		ev.Notify()
		p.Wait(10 * Us)
		ev.Notify()
	})
	k.Run()
	if fromEvent != 2 || fromTimer != 2 {
		t.Fatalf("fromEvent=%d fromTimer=%d, want 2 and 2", fromEvent, fromTimer)
	}
}

// An earlier wake overrides a later one (event override rules), CancelWake
// clears a pending wake, and initial strands run at elaboration.
func TestStrandWakeOverrideAndCancel(t *testing.T) {
	k := New()
	var resumes []Time
	s := k.NewStrand("s", StepFunc(func(s *Strand) {
		resumes = append(resumes, k.Now())
	}), true)
	s.WakeIn(20 * Us)
	s.WakeIn(5 * Us) // earlier wins
	k.RunUntil(6 * Us)
	s.WakeIn(7 * Us)
	s.CancelWake()
	if s.WakePending() {
		t.Fatal("wake still pending after CancelWake")
	}
	k.Run()
	if len(resumes) != 2 || resumes[0] != 0 || resumes[1] != 5*Us {
		t.Fatalf("resumes = %v, want [0 5us]", resumes)
	}
}

func TestStrandResumeMetric(t *testing.T) {
	k := New()
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	s := k.NewStrand("s", StepFunc(func(s *Strand) {
		if k.Now() < 3*Us {
			s.WakeIn(1 * Us)
		}
	}), false)
	s.WakeDelta()
	k.Run()
	c := reg.Counter("sim_strand_resumes_total", "")
	if got := c.Value(); got != k.StrandResumes() || got == 0 {
		t.Fatalf("metric = %d, kernel = %d; want equal and nonzero", got, k.StrandResumes())
	}
}
