package telemetry

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestExportSurfaceGolden pins the exported metric surface: every sample
// WritePrometheus renders for the metric families, under the prefixes
// cmd/alphanode registers them with, as a sorted "sample type" list in
// testdata/export_surface.golden. The I/O family has no prefix of its own;
// it is exported as the io_* samples of the two transport families.
//
// Dashboards, the CI smoke greps and obs.Invariants all match these names,
// so a rename has to be deliberate: edit the golden file in the same change.
func TestExportSurfaceGolden(t *testing.T) {
	e := NewExporter()
	e.Register("alpha_adaptive", &ControllerMetrics{})
	e.Register("alpha_admission", &AdmissionMetrics{})
	e.Register("alpha_transport", new(TransportMetrics).Init())
	e.Register("alpha_endpoint", NewEndpointMetrics())
	e.Register("alpha_relay", new(RelayMetrics).Init())
	e.Register("alpha_relay_transport", new(RelayTransportMetrics).Init())
	var b bytes.Buffer
	if err := e.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	// The exporter declares a family's TYPE right before its first sample,
	// so a sample's type is the last one declared.
	var got []string
	var typ string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			typ = f[3]
			continue
		}
		got = append(got, line[:strings.LastIndexByte(line, ' ')]+" "+typ)
	}
	sort.Strings(got)

	raw, err := os.ReadFile("testdata/export_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// A multiset, not a set: nothing stops a name being exported twice,
	// which Prometheus rejects when the types differ.
	count := map[string]int{}
	for _, s := range got {
		count[s]++
	}
	for _, s := range want {
		count[s]--
	}
	for _, s := range append(want, got...) {
		switch n := count[s]; {
		case n < 0:
			t.Errorf("no longer exported: %s", s)
		case n > 0:
			t.Errorf("newly exported: %s", s)
		}
		delete(count, s)
	}
}
