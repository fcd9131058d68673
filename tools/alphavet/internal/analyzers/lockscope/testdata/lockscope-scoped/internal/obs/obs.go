// Stub of a recorder outside the scope of the run: whether its methods
// block is known only from the bodies lockscope reads from it as a
// dependency, and nothing in it is reported.
package obs

import (
	"sync"
	"time"
)

type Recorder struct {
	mu    sync.RWMutex
	spans []int
}

// Shared blocks through ring's read lock.
func (r *Recorder) Shared() []int { return r.ring() }

func (r *Recorder) ring() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.spans
}

// Pause sleeps.
func (r *Recorder) Pause() { time.Sleep(time.Millisecond) }

// Len does not block.
func (r *Recorder) Len() int { return len(r.spans) }

// flush is hot and sleeps under a lock: the sweep reports it, a run scoped
// to server does not.
//
//alpha:hotpath
func (r *Recorder) flush() {
	r.mu.Lock()
	time.Sleep(time.Millisecond)
	r.mu.Unlock()
}
