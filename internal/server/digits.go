package server

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// The integer key codec works on decimal text eight digits to a uint64
// word (the SWAR kernels of Langdale & Lemire, "Parsing Gigabytes of
// JSON per Second"): one load or store and three multiply-shift steps
// per eight digits, instead of one dependent multiply-add or divide per
// digit. Byte k of a word is the k-th digit, the most significant
// first, as the text reads.

const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// pow10 holds 10^k for the partial-word digit counts k = 0…8.
var pow10 = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// eightDigits returns the value of the eight digits in w, one 0–9 per
// byte: adjacent digits pair into bytes, pairs into 16-bit lanes, and
// the two 4-digit halves into the result.
func eightDigits(w uint64) uint64 {
	w = (w * (1 + 10<<8)) >> 8
	w = ((w & 0x00FF00FF00FF00FF) * (1 + 100<<16)) >> 16
	return ((w & 0x0000FFFF0000FFFF) * (1 + 10000<<32)) >> 32
}

// scanMagnitude scans a JSON integer's digits (no sign) at b[i:]. Up to
// 16 digits go a word at a time; the rest, and a number within 8 bytes
// of the end of the body, go through the checked byte loop.
func scanMagnitude(b []byte, i int) (uint64, int, error) {
	start := i
	var v uint64
	for i+8 <= len(b) && i-start <= 8 {
		d := binary.LittleEndian.Uint64(b[i:]) - '0'*ones
		// A byte's high bit is set where it was below '0' (it wrapped)
		// or above '9' (+0x76 carries it past 0x7F); the lowest such
		// byte is exact, as no borrow or carry leaves a digit byte.
		nonDigit := ((d + 0x76*ones) | d) & highs
		if nonDigit == 0 {
			v = v*1e8 + eightDigits(d)
			i += 8
			continue
		}
		if k := bits.TrailingZeros64(nonDigit) / 8; k > 0 {
			v = v*pow10[k] + eightDigits(d<<(64-8*k)) // the k digits, behind 8−k zeros
			i += k
		}
		break
	}
	for ; i < len(b); i++ {
		d := uint64(b[i]) - '0'
		if d > 9 {
			break
		}
		// 19 digits always fit; the 20th may not, a 21st never does
		// (a leading zero is refused below, so every digit counts).
		if i-start >= 19 && (i-start > 19 || v > math.MaxUint64/10 || v*10 > math.MaxUint64-d) {
			return 0, i, strconv.ErrRange
		}
		v = v*10 + d
	}
	switch {
	case i == start:
		return 0, i, notAKey(b, i, "a number")
	case b[start] == '0' && i-start > 1:
		return 0, i, errors.New("leading zero")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, i, errNotInteger
	}
	return v, i, nil
}

// digitWord spreads x < 10^8 into eight digits, one per byte, by
// multiply-shift division in lanes: by 10^4 into two 32-bit lanes, by
// 100 into four 16-bit lanes, by 10 into eight bytes.
func digitWord(x uint64) uint64 {
	hi := x / 1e4
	w := (x-hi*1e4)<<32 | hi
	q := ((w * 10486) >> 20) & 0x0000007F0000007F // ⌊lane/100⌋, exact below 43 690
	w = q | (w-q*100)<<16
	q = ((w * 103) >> 10) & 0x000F000F000F000F // ⌊lane/10⌋, exact below 179
	return q | (w-q*10)<<8
}

// appendUint appends v in decimal, as encoding/json writes an unsigned
// integer: at most three 8-digit chunks, each one store, the first with
// its leading zeros trimmed.
func appendUint(dst []byte, v uint64) []byte {
	var chunks [3]uint64
	n := 1
	switch {
	case v < 1e8:
		chunks[0] = v
	case v < 1e16:
		chunks[0], chunks[1] = v/1e8, v%1e8
		n = 2
	default:
		hi := v / 1e8
		chunks[0], chunks[1], chunks[2] = hi/1e8, hi%1e8, v%1e8
		n = 3
	}
	dst = slices.Grow(dst, 8*n)
	l := len(dst)
	dst = dst[:l+8*n]
	w := digitWord(chunks[0])
	lead := min(bits.TrailingZeros64(w)/8, 7) // zero digits ahead of the first; 0 itself keeps one
	binary.LittleEndian.PutUint64(dst[l:], (w+'0'*ones)>>(8*lead))
	l += 8 - lead
	for _, c := range chunks[1:n] {
		binary.LittleEndian.PutUint64(dst[l:], digitWord(c)+'0'*ones)
		l += 8
	}
	return dst[:l]
}

// appendInt appends k in decimal, as encoding/json writes a signed
// integer.
func appendInt(dst []byte, k int64) []byte {
	if k < 0 {
		return appendUint(append(dst, '-'), -uint64(k))
	}
	return appendUint(dst, uint64(k))
}
