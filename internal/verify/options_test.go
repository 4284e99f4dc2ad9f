package verify

import (
	"errors"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
)

// TestOptionsValidate is the table test for the façade's option
// validation: nonsense values must come back as a typed *OptionError
// naming the offending field, and valid values must pass.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name      string
		opts      Options
		wantField string // "" = valid
	}{
		{"zero-value", Options{}, ""},
		{"all-defaults-gpo", Options{Engine: GPO}, ""},
		{"zero-bounds-valid", Options{Engine: Exhaustive, MaxStates: 0, MaxNodes: 0, Workers: 0}, ""},
		{"positive-bounds-valid", Options{Engine: Symbolic, MaxStates: 10, MaxNodes: 10, Workers: 4}, ""},
		{"engine-negative", Options{Engine: Engine(-1)}, "Engine"},
		{"engine-past-end", Options{Engine: Unfolding + 1}, "Engine"},
		{"engine-way-out", Options{Engine: Engine(99)}, "Engine"},
		{"max-states-negative", Options{Engine: GPO, MaxStates: -1}, "MaxStates"},
		{"max-nodes-negative", Options{Engine: Symbolic, MaxNodes: -7}, "MaxNodes"},
		{"workers-negative", Options{Engine: Exhaustive, Workers: -2}, "Workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.wantField == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() = %v (%T), want *OptionError", err, err)
			}
			if oe.Field != tc.wantField {
				t.Fatalf("OptionError.Field = %q, want %q", oe.Field, tc.wantField)
			}
			if oe.Error() == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestChecksRejectInvalidOptions verifies both façade entry points route
// through Validate instead of panicking or silently misbehaving.
func TestChecksRejectInvalidOptions(t *testing.T) {
	net := models.NSDP(2)
	bad := []petri.Place{net.InitialPlaces()[0]}
	invalid := []Options{
		{Engine: Engine(42)},
		{Engine: GPO, MaxStates: -1},
		{Engine: Exhaustive, Workers: -1},
		{Engine: Symbolic, MaxNodes: -1},
	}
	for _, opts := range invalid {
		var oe *OptionError
		if _, err := CheckDeadlock(net, opts); !errors.As(err, &oe) {
			t.Errorf("CheckDeadlock(%+v) = %v, want *OptionError", opts, err)
		}
		if _, err := CheckSafety(net, bad, opts); !errors.As(err, &oe) {
			t.Errorf("CheckSafety(%+v) = %v, want *OptionError", opts, err)
		}
	}
	// A bad list no engine can check is refused before any engine runs,
	// with the same error from every engine.
	for _, bad := range [][]petri.Place{nil, {200}} {
		for _, eng := range allEngines {
			var oe *OptionError
			if _, err := CheckSafety(net, bad, Options{Engine: eng}); !errors.As(err, &oe) || oe.Field != "bad" {
				t.Errorf("%v: CheckSafety(bad=%v) = %v, want *OptionError on bad", eng, bad, err)
			}
		}
	}
}
