// The one package of the scoped run: its hot path holds a mutex around
// calls into obs, a dependency the run does not analyze.
package server

import (
	"sync"

	"alpha/internal/obs"
)

type session struct {
	mu  sync.Mutex
	rec *obs.Recorder
	n   int
}

// push blocks under s.mu only through bodies lockscope reads from obs.
//
//alpha:hotpath
func (s *session) push() {
	s.mu.Lock()
	_ = s.rec.Shared() // want `call to obs\.Recorder\.Shared blocks \(obs\.Recorder\.ring: nested sync\.RWMutex\.RLock\) while holding mutex "s\.mu" in hot path server\.session\.push`
	s.rec.Pause()      // want `call to obs\.Recorder\.Pause blocks \(time\.Sleep\) while holding mutex "s\.mu" in hot path server\.session\.push`
	s.n = s.rec.Len()
	s.mu.Unlock()
}
