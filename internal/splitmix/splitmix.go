// Package splitmix is the coin-flip stream the scheduler and the fault
// plan draw from: a splitmix64 generator whose entire state is one word,
// so a cursor that holds it is one uvarint and a run resumed from a
// snapshot draws exactly the coins it would have drawn (math/rand.Rand
// hides its state, which is why it is not used). The stream is
// deterministic per seed and statistically adequate for activation and
// fault coin flips.
//
//gather:deterministic
package splitmix

// Stream is a splitmix64 generator; its value is its whole state, so a
// Stream is seeded by conversion and checkpointed by converting back.
type Stream uint64

// Next advances the stream and returns its next 64 random bits.
func (s *Stream) Next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 { return float64(s.Next()>>11) / (1 << 53) }
