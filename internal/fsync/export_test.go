package fsync

// GatheredUncached computes the gathered verdict afresh, bypassing the
// per-version cache Gathered answers from: the cache's reference.
func (e *Engine) GatheredUncached() bool { return e.gatheredNow() }
