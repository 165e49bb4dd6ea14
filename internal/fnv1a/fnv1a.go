// Package fnv1a is the 32-bit FNV-1a hash every routing decision in
// the pipeline keys on: the engine maps a Call-ID to its shard, the
// ingress lanes stripe media and flood destinations, and the media
// fast path picks a cache stripe. One implementation keeps the string
// and byte forms of a key on the same shard, lane and stripe.
package fnv1a

// Offset is the FNV-1a 32-bit offset basis: the hash of no bytes, and
// the h a fresh hash starts from.
const Offset = 2166136261

const prime = 16777619

// AddString folds s into the running hash h.
func AddString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * prime
	}
	return h
}

// AddBytes folds b into the running hash h; it equals
// AddString(h, string(b)).
func AddBytes(h uint32, b []byte) uint32 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint32(b[i])) * prime
	}
	return h
}
