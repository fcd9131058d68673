package alpha_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"alpha/internal/adaptive"
	"alpha/internal/admission"
	"alpha/internal/core"
	"alpha/internal/relay"
	"alpha/internal/udptransport"
)

// TestConfigSurfaceGolden pins the settable surface: every exported field
// of the configuration structs a deployment fills in, found by reflection,
// as "pkg.Type.Field" lines in testdata/config_surface.golden. Each field is
// an option every test and benchmark configuration multiplies by, so adding
// one has to be deliberate: edit the golden file in the same change.
func TestConfigSurfaceGolden(t *testing.T) {
	var got []string
	for _, v := range []any{
		core.Config{},
		relay.Config{},
		udptransport.ServerOptions{},
		udptransport.IOOptions{},
		adaptive.Config{},
		admission.VerifierConfig{},
	} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, typ.String()+"."+f.Name)
			}
		}
	}

	raw, err := os.ReadFile("testdata/config_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	in := map[string]int{}
	for _, s := range got {
		in[s]++
	}
	for _, s := range want {
		in[s]--
	}
	for _, s := range append(want, got...) {
		switch n := in[s]; {
		case n < 0:
			t.Errorf("no longer settable: %s", s)
		case n > 0:
			t.Errorf("newly settable: %s", s)
		}
		delete(in, s)
	}
}
