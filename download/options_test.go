package download_test

import (
	"strings"
	"testing"

	"repro/download"
)

// TestOptionValidationMatrix is the full option-validation table: every
// rejected configuration must fail with a specific, actionable message
// (not a confusing sim-level one), and the accepted edge cases must run.
// Before validate() existed, several of these slipped through — most
// dangerously a negative Faulty count, which silently ran with no faults
// at all.
func TestOptionValidationMatrix(t *testing.T) {
	ok := func(o download.Options) download.Options { return o }
	base := func() download.Options {
		return download.Options{Protocol: download.Naive, N: 4, T: 1, L: 64}
	}
	cases := []struct {
		name    string
		mutate  func(download.Options) download.Options
		wantErr string // substring of the error; "" means the run must succeed
	}{
		{"valid baseline", ok, ""},
		{"unknown protocol", func(o download.Options) download.Options {
			o.Protocol = "teleport"
			return o
		}, `unknown protocol "teleport"`},
		{"empty protocol", func(o download.Options) download.Options {
			o.Protocol = ""
			return o
		}, "unknown protocol"},
		{"zero peers", func(o download.Options) download.Options {
			o.N = 0
			return o
		}, "at least 2 peers"},
		{"one peer", func(o download.Options) download.Options {
			o.N = 1
			return o
		}, "at least 2 peers"},
		{"negative peers", func(o download.Options) download.Options {
			o.N = -4
			return o
		}, "at least 2 peers"},
		{"zero input length", func(o download.Options) download.Options {
			o.L = 0
			return o
		}, "must be positive"},
		{"negative input length", func(o download.Options) download.Options {
			o.L = -64
			return o
		}, "must be positive"},
		{"negative fault bound", func(o download.Options) download.Options {
			o.T = -1
			return o
		}, "outside [0, N)"},
		{"fault bound equals n", func(o download.Options) download.Options {
			o.T = o.N
			return o
		}, "outside [0, N)"},
		{"fault bound above n", func(o download.Options) download.Options {
			o.T = o.N + 3
			return o
		}, "outside [0, N)"},
		{"negative message size", func(o download.Options) download.Options {
			o.MsgBits = -8
			return o
		}, "must not be negative"},
		{"negative faulty count", func(o download.Options) download.Options {
			o.Faulty = -2
			o.Behavior = download.Silent
			return o
		}, "must not be negative"},
		{"negative deadline", func(o download.Options) download.Options {
			o.Deadline = -1
			return o
		}, "must not be negative"},
		{"input shorter than L", func(o download.Options) download.Options {
			o.Input = make([]bool, 32)
			return o
		}, "input length 32 != L=64"},
		{"input longer than L", func(o download.Options) download.Options {
			o.Input = make([]bool, 65)
			return o
		}, "input length 65 != L=64"},
		{"unknown behavior", func(o download.Options) download.Options {
			o.Behavior = "weird"
			return o
		}, `unknown behavior "weird"`},
		{"faulty without behavior", func(o download.Options) download.Options {
			o.Faulty = 1
			return o
		}, "without a behavior"},
		{"faulty exceeds bound", func(o download.Options) download.Options {
			o.Faulty, o.Behavior = 2, download.Silent
			return o
		}, "exceeds bound T=1"},
		{"excess faults opted in", func(o download.Options) download.Options {
			o.Faulty, o.Behavior = 2, download.Silent
			o.AllowExcessFaults = true
			return o
		}, ""},
		{"excess faults leave no honest peer", func(o download.Options) download.Options {
			o.Faulty, o.Behavior = 4, download.Silent
			o.AllowExcessFaults = true
			return o
		}, "leaves no honest peer"},
		{"default faulty=T leaves no honest peer", func(o download.Options) download.Options {
			o.N, o.T = 2, 0
			o.Behavior = download.CrashImmediate
			o.AllowExcessFaults = true
			o.Faulty = 2
			return o
		}, "leaves no honest peer"},
		{"tcp with byzantine behavior", func(o download.Options) download.Options {
			o.TCP = true
			o.Faulty, o.Behavior = 1, download.Silent
			return o
		}, ""},
		{"tcp with random crash", func(o download.Options) download.Options {
			o.TCP = true
			o.Faulty, o.Behavior = 1, download.CrashRandom
			return o
		}, ""},
		{"tcp with excess faults", func(o download.Options) download.Options {
			o.TCP = true
			o.Faulty, o.Behavior = 2, download.Silent
			o.AllowExcessFaults = true
			return o
		}, "unsupported on the tcp runtime"},
		{"every behavior accepted in sim", func(o download.Options) download.Options {
			o.Faulty, o.Behavior = 1, download.Equivocate
			return o
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := download.Run(tc.mutate(base()))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if rep == nil {
					t.Fatal("no report from accepted options")
				}
				return
			}
			if err == nil {
				t.Fatalf("options accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
