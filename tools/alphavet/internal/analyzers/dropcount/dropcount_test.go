package dropcount_test

import (
	"testing"

	"alpha/tools/alphavet/internal/analyzers/dropcount"
	"alpha/tools/alphavet/internal/vet/vettest"
)

func TestDropcount(t *testing.T) {
	vettest.Run(t, "testdata/dropcount", dropcount.Analyzer)
}

// TestDropcountScoped runs on one package of a two-package module: a
// counting helper declared in the other, which the run does not analyze,
// still counts.
func TestDropcountScoped(t *testing.T) {
	vettest.Run(t, "testdata/dropcount-scoped", dropcount.Analyzer, "./internal/packet")
}
