// The one package of the scoped run: its hot path counts through helpers
// declared in telemetry, a dependency the run does not analyze.
package packet

import "alpha/internal/telemetry"

type Header struct{ Type byte }

type filter struct {
	tel  telemetry.Metrics
	hook func()
}

// check exits counted through a dependency's helper, and uncounted through
// one that does not count and through a callee with no body to read.
//
//alpha:hotpath
func (f *filter) check(hdr Header) bool {
	if hdr.Type == 0 {
		f.tel.NoteDrop()
		return false
	}
	if hdr.Type == 1 {
		f.tel.Note()
		return false // want `uncounted conditional return`
	}
	if hdr.Type == 2 {
		f.hook()
		return false // want `uncounted conditional return`
	}
	return true
}
