package serve

import "sync"

// HoldSpillWrites makes the spill store's writer report each session ID it
// is about to write on the returned channel and then wait, before writing
// anything, until release is called. Every write after release goes
// straight through.
func (s *Server) HoldSpillWrites() (started <-chan string, release func()) {
	// Buffered past the writes a test makes while holding, so a report
	// never waits on the test reading it.
	ch := make(chan string, 64)
	gate := make(chan struct{})
	var once sync.Once
	s.store.mu.Lock()
	s.store.beforeWrite = func(id string) {
		select {
		case ch <- id:
		case <-gate:
		}
		<-gate
	}
	s.store.mu.Unlock()
	return ch, func() { once.Do(func() { close(gate) }) }
}
