// Package detrand holds the deterministic mixing and digest primitives
// the rest of the tree derives seeds, fault decisions, and integrity
// hashes from. They are defined once, here, because their exact outputs
// are part of the replay contract: a changed constant silently changes
// every fault schedule, member seed, sharded-RMAT graph, and journal
// checksum (detrand_test.go pins literal vectors against that).
package detrand

// Fin64 is the splitmix64 output finalizer: a full-avalanche 64-bit
// mixer, so neighboring inputs decorrelate completely.
func Fin64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 is one whole splitmix64 step: the golden-gamma Weyl increment
// followed by the finalizer. Unlike Fin64 it does not fix zero.
func Mix64(x uint64) uint64 {
	return Fin64(x + 0x9e3779b97f4a7c15)
}

// The 64-bit FNV-1a parameters.
const (
	FNVOffset64 = 0xcbf29ce484222325
	FNVPrime64  = 0x100000001b3
)

// FNVFold64 folds one 64-bit quantity into an FNV-1a state, byte by
// byte (little-endian). Start from FNVOffset64.
func FNVFold64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= FNVPrime64
		x >>= 8
	}
	return h
}
