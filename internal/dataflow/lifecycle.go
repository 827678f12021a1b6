package dataflow

import (
	"io"
	"sync"
)

// CloseOnDone bridges an external resource — typically a transport
// link — into the runner's cancellation plane: when done (the runner's
// Done channel) closes, c is closed, unblocking any task stuck in a
// blocking read or write on it. Without this, a cancelled topology
// could leave a task wedged in a network write no Done-select can
// reach.
//
// The returned release func detaches the watcher without closing c;
// call it on the clean-shutdown path, where the runner finishes
// without ever cancelling and done never closes.
func CloseOnDone(done <-chan struct{}, c io.Closer) (release func()) {
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			_ = c.Close() // drop: it only unblocks the owner's pending I/O; the owner reports the stop cause
		case <-stop:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }) }
}
