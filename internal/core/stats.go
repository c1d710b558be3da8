package core

import "sync/atomic"

// counters is the internal, concurrency-safe backing store for Stats. The
// FSYNC engine may shard the compute phase across a worker pool
// (fsync.Config.Workers), in which case Compute runs concurrently for
// different robots of the same round; every event increment therefore goes
// through an atomic counter. Reads other than Stats() happen only between
// rounds, when the pool is quiescent.
type counters struct {
	mergeMoves   atomic.Int64
	diagonalHops atomic.Int64
	rolls        atomic.Int64
	glides       atomic.Int64
	passEnters   atomic.Int64
	startsA      atomic.Int64
	startsB      atomic.Int64
	stopSequent  atomic.Int64
	stopEndpoint atomic.Int64
	stopGeometry atomic.Int64
	stopOntoOcc  atomic.Int64
}

// snapshot assembles the public Stats view of the counters.
func (c *counters) snapshot() Stats {
	return Stats{
		MergeMoves:   int(c.mergeMoves.Load()),
		DiagonalHops: int(c.diagonalHops.Load()),
		Rolls:        int(c.rolls.Load()),
		Glides:       int(c.glides.Load()),
		PassEnters:   int(c.passEnters.Load()),
		StartsA:      int(c.startsA.Load()),
		StartsB:      int(c.startsB.Load()),
		StopSequent:  int(c.stopSequent.Load()),
		StopEndpoint: int(c.stopEndpoint.Load()),
		StopGeometry: int(c.stopGeometry.Load()),
		StopOntoOcc:  int(c.stopOntoOcc.Load()),
	}
}
