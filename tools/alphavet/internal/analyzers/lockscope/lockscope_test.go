package lockscope_test

import (
	"testing"

	"alpha/tools/alphavet/internal/analyzers/lockscope"
	"alpha/tools/alphavet/internal/vet/vettest"
)

func TestLockscope(t *testing.T) {
	vettest.Run(t, "testdata/lockscope", lockscope.Analyzer)
}

// TestLockscopeScoped runs on one package of a two-package module: a call
// under a hot mutex blocks through a body declared in the other package,
// which the run reads but does not analyze.
func TestLockscopeScoped(t *testing.T) {
	vettest.Run(t, "testdata/lockscope-scoped", lockscope.Analyzer, "./internal/server")
}
