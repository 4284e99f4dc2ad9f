package stop

import (
	"context"
	"errors"
	"testing"
)

func TestNilCheckerIsNoOp(t *testing.T) {
	var c *Checker
	for i := 0; i < 10; i++ {
		if err := c.Poll(); err != nil {
			t.Fatalf("nil checker returned %v", err)
		}
	}
	if Every(nil, 8) != nil {
		t.Fatal("Every(nil, _) should return nil")
	}
}

func TestFirstPollChecks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Every(ctx, 1024)
	if err := c.Poll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Poll on a pre-cancelled context: got %v, want Canceled", err)
	}
}

func TestPeriodAmortizesAndLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := Every(ctx, 4)
	if err := c.Poll(); err != nil { // first call checks, ctx still live
		t.Fatalf("live context: got %v", err)
	}
	cancel()
	// Calls 2..4 fall inside the period and must not observe the cancel.
	for i := 0; i < 3; i++ {
		if err := c.Poll(); err != nil {
			t.Fatalf("call %d inside period: got %v", i+2, err)
		}
	}
	if err := c.Poll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("period boundary: got %v, want Canceled", err)
	}
	// Latched: every later call returns the error without re-counting.
	if err := c.Poll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("latched: got %v, want Canceled", err)
	}
}

func TestZeroPeriodMeansEveryCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := Every(ctx, 0)
	if err := c.Poll(); err != nil {
		t.Fatalf("live: %v", err)
	}
	cancel()
	if err := c.Poll(); !errors.Is(err, context.Canceled) {
		t.Fatalf("after cancel: got %v", err)
	}
}

// TestHookAt pins the boundary protocol every checkpointing engine runs
// through Hook.At: Continue builds nothing, Save saves and goes on,
// Suspend saves and returns ErrSuspended, a Save failure is returned,
// and a nil Hook or one without Save never builds a snapshot.
func TestHookAt(t *testing.T) {
	var saved []int
	built := 0
	snapshot := func() int { built++; return built }
	var act Action
	saveErr := errors.New("disk full")
	h := &Hook[int]{
		Poll: func(states int, boundary int64) Action { return act },
		Save: func(sn int) error {
			saved = append(saved, sn)
			if sn == 3 {
				return saveErr
			}
			return nil
		},
	}
	for _, tc := range []struct {
		act  Action
		want error
	}{{Continue, nil}, {Save, nil}, {Suspend, ErrSuspended}, {Save, saveErr}} {
		act = tc.act
		if err := h.At(1, 0, snapshot); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("action %d: err = %v, want %v", tc.act, err, tc.want)
		}
	}
	if built != 3 || len(saved) != 3 {
		t.Errorf("built %d snapshots and saved %v, want 3 of each", built, saved)
	}

	var nilHook *Hook[int]
	pollOnly := &Hook[int]{Poll: func(int, int64) Action { return Suspend }}
	if err := nilHook.At(1, 0, snapshot); err != nil {
		t.Errorf("nil hook: %v", err)
	}
	if err := pollOnly.At(1, 0, snapshot); err != ErrSuspended {
		t.Errorf("poll-only hook: %v, want ErrSuspended", err)
	}
	if built != 3 {
		t.Errorf("a hook without Save built a snapshot")
	}
}
