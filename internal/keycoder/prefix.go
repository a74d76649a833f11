package keycoder

// Prefix is the byte-string key's entry to the code plane: an
// order-preserving but non-bijective extractor that packs the first
// eight bytes of a key big-endian into a uint64, padding short keys
// with zero bytes. It satisfies the prefix-extractor half of the coder
// contract (see the package comment):
//
//	bytes.Compare(a, b) < 0  ⟹  Code(a) <= Code(b)
//
// with equality of codes exactly when the keys agree on their first
// eight bytes (short keys padded). Code equality therefore does NOT
// imply key equality — every consumer of a Prefix code must resolve
// equal-code runs with the comparator (codes.TieBreak, the tie-aware
// merges). There is no Decode: distinct keys share codes, so the
// extraction is not invertible.
type Prefix struct{}

// Code returns the big-endian uint64 of k's first eight bytes, short
// keys zero-padded. The zero-padding is order-correct: a key that is a
// strict prefix of another compares below it, and its padded code is
// <= the longer key's code.
func (Prefix) Code(k []byte) uint64 {
	var c uint64
	n := len(k)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		c |= uint64(k[i]) << (56 - 8*i)
	}
	return c
}

// PrefixBytes returns the canonical 8-byte key whose Prefix code is c —
// the representative a code-space splitter decodes to when a byte-key
// Plan needs concrete splitter keys. Re-extracting (Prefix{}.Code on
// the result) recovers c exactly.
func PrefixBytes(c uint64) []byte {
	k := make([]byte, 8)
	for i := 0; i < 8; i++ {
		k[i] = byte(c >> (56 - 8*i))
	}
	return k
}
