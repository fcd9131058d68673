package telemetry

import (
	"strings"
	"testing"
)

// walkedCounters returns the counters a family's Walk reports, by sample
// name.
func walkedCounters(w Walker) map[string]uint64 {
	all := map[string]any{}
	w.Walk(&mapVisitor{prefix: "f", out: all})
	out := map[string]uint64{}
	for name, v := range all {
		if n, ok := v.(uint64); ok {
			out[strings.TrimPrefix(name, "f_")] = n
		}
	}
	return out
}

// dropBalance returns the walked dropped total and the sum of the walked
// drop_* samples.
func dropBalance(walked map[string]uint64) (dropped, sum uint64) {
	for name, n := range walked {
		if strings.HasPrefix(name, "drop_") {
			sum += n
		}
	}
	return walked["dropped"], sum
}

type dropFamily interface {
	Walker
	NoteDrop(code uint32)
}

// TestEveryFamilyCountsEveryCode is invariant I3 and the unowned-code
// policy as a table: whatever code a family is handed — one it owns, one
// another family owns, ReasonNone, one past the table — its walked dropped
// equals the sum of its walked drop_* samples, and the one sample that
// moved is the code's own or drop_unknown, never another reason's.
func TestEveryFamilyCountsEveryCode(t *testing.T) {
	families := []struct {
		name  string
		owner family
		fresh func() dropFamily
	}{
		{"endpoint", familyEndpoint, func() dropFamily { return NewEndpointMetrics() }},
		{"relay", familyRelay, func() dropFamily { return new(RelayMetrics).Init() }},
		{"admission", familyAdmission, func() dropFamily { return new(AdmissionMetrics).Init() }},
	}
	codes := []uint32{9999}
	for code := ReasonNone; code < NumReasons; code++ {
		codes = append(codes, code)
	}
	for _, f := range families {
		all := f.fresh()
		for _, code := range codes {
			m := f.fresh()
			before := walkedCounters(m)
			m.NoteDrop(code)
			all.NoteDrop(code)
			after := walkedCounters(m)

			if dropped, sum := dropBalance(after); dropped != 1 || sum != 1 {
				t.Errorf("%s, code %d: dropped=%d, Σ drop_*=%d, want 1 and 1", f.name, code, dropped, sum)
			}
			own := DropSample(code)
			for name, n := range after {
				if n == before[name] || name == "dropped" {
					continue
				}
				if name != own && name != "drop_unknown" {
					t.Errorf("%s, code %d (%s): counted as %s", f.name, code, ReasonString(code), name)
				}
				if name != own && ReasonInfo(code).families&f.owner != 0 {
					t.Errorf("%s owns %s but counted it as %s", f.name, ReasonString(code), name)
				}
			}
			// An owned reason is exported before it ever fires.
			if _, ok := before[own]; ReasonInfo(code).families&f.owner != 0 && !ok {
				t.Errorf("%s does not export %s at zero", f.name, own)
			}
		}
		if dropped, sum := dropBalance(walkedCounters(all)); dropped != uint64(len(codes)) || sum != dropped {
			t.Errorf("%s after every code: dropped=%d, Σ drop_*=%d, want %d", f.name, dropped, sum, len(codes))
		}
	}
}

// TestReasonTable holds the table's own consistency: every code has a
// distinct name, and every reason the endpoint owns fits the endpoint's
// narrower array (the compile-time assertion in reasons.go covers the
// constants' order, this covers the Families column).
func TestReasonTable(t *testing.T) {
	seen := map[string]uint32{}
	for code := ReasonNone; code < NumReasons; code++ {
		r := ReasonInfo(code)
		if r.Name == "" || r.Name == unknownReason {
			t.Errorf("code %d has no name of its own: %q", code, r.Name)
		}
		if prev, dup := seen[r.Name]; dup {
			t.Errorf("codes %d and %d share the name %q", prev, code, r.Name)
		}
		seen[r.Name] = code
		if r.families&familyEndpoint != 0 && code >= endpointReasonSlots {
			t.Errorf("endpoint reason %s has code %d, past the endpoint's %d slots", r.Name, code, endpointReasonSlots)
		}
		if r.VerifyFail && !r.Hostile {
			t.Errorf("%s fails verification but is not hostile", r.Name)
		}
	}
}
