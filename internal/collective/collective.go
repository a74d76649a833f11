package collective

import (
	"fmt"

	"hssort/internal/comm"
)

// rankedPart carries one rank's contribution through a gather tree.
type rankedPart[T any] struct {
	rank int
	data []T
}

// Bcast broadcasts root's data slice to all ranks: BcastSized with each
// hop accounted at the slice's bytes. Non-root callers pass nil.
func Bcast[T any](e comm.Endpoint, root int, tag comm.Tag, data []T) ([]T, error) {
	return BcastSized(e, root, tag, data, comm.SliceBytes[T])
}

// BcastSized broadcasts root's value v to all ranks along a binomial tree
// (ceil(log2 p) rounds, each rank sends at most log p messages), each
// message accounted at size(v) bytes. Non-root callers pass the zero value
// and receive root's; root receives its own back. The value is shared by
// reference: receivers must not modify it.
func BcastSized[T any](e comm.Endpoint, root int, tag comm.Tag, v T, size func(T) int64) (T, error) {
	comm.RegisterWire[T]() // wire transports decode by registered type
	p := e.Size()
	me := e.Rank()
	rel := (me - root + p) % p

	// Receive from the parent (the rank that differs in our lowest set bit).
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			m, err := e.Recv((me-mask+p)%p, tag)
			if err != nil {
				return v, fmt.Errorf("collective: bcast recv: %w", err)
			}
			got, ok := m.Payload.(T)
			if !ok && m.Payload != nil {
				return v, fmt.Errorf("collective: bcast payload type %T", m.Payload)
			}
			v = got
			break
		}
		mask <<= 1
	}
	// Forward to children below the received mask.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			if err := e.Send((me+mask)%p, tag, v, size(v)); err != nil {
				return v, fmt.Errorf("collective: bcast send: %w", err)
			}
		}
	}
	return v, nil
}

// BcastValue broadcasts a single value from root to all ranks.
func BcastValue[T any](e comm.Endpoint, root int, tag comm.Tag, v T) (T, error) {
	out, err := Bcast(e, root, tag, []T{v})
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// Reduce combines equal-length data slices from all ranks at root using
// the elementwise accumulator op(dst, src), along a binomial tree. On
// root it returns the fully reduced vector; on other ranks it returns nil.
// Reduce consumes data as its accumulator: callers must not reuse the
// slice afterwards.
func Reduce[T any](e comm.Endpoint, root int, tag comm.Tag, data []T, op func(dst, src []T)) ([]T, error) {
	p := e.Size()
	me := e.Rank()
	rel := (me - root + p) % p
	acc := data
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p
			if err := comm.SendSlice(e, dst, tag, acc); err != nil {
				return nil, fmt.Errorf("collective: reduce send: %w", err)
			}
			return nil, nil
		}
		srcRel := rel | mask
		if srcRel < p {
			src := (srcRel + root) % p
			recv, err := comm.RecvSlice[T](e, src, tag)
			if err != nil {
				return nil, fmt.Errorf("collective: reduce recv: %w", err)
			}
			if len(recv) != len(acc) {
				return nil, fmt.Errorf("collective: reduce length mismatch: %d vs %d", len(recv), len(acc))
			}
			op(acc, recv)
		}
	}
	return acc, nil
}

// AllReduce is Reduce to rank 0 followed by Bcast; every rank receives the
// reduced vector.
func AllReduce[T any](e comm.Endpoint, tag comm.Tag, data []T, op func(dst, src []T)) ([]T, error) {
	red, err := Reduce(e, 0, tag, data, op)
	if err != nil {
		return nil, err
	}
	return Bcast(e, 0, tag+1, red)
}

// SumInt64 is the elementwise accumulator for histogram reduction.
func SumInt64(dst, src []int64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Gatherv collects each rank's variable-length slice at root along a
// binomial tree. On root it returns all contributions indexed by rank; on
// other ranks it returns nil. Contributed slices transfer ownership.
func Gatherv[T any](e comm.Endpoint, root int, tag comm.Tag, data []T) ([][]T, error) {
	comm.RegisterWire[[]rankedPart[T]]() // wire transports decode by registered type
	p := e.Size()
	me := e.Rank()
	rel := (me - root + p) % p
	parts := []rankedPart[T]{{rank: me, data: data}}
	for mask := 1; mask < p; mask <<= 1 {
		if rel&mask != 0 {
			dst := (rel - mask + root) % p
			bytes := int64(0)
			for _, pt := range parts {
				bytes += comm.SliceBytes(pt.data)
			}
			if err := e.Send(dst, tag, parts, bytes); err != nil {
				return nil, fmt.Errorf("collective: gatherv send: %w", err)
			}
			return nil, nil
		}
		srcRel := rel | mask
		if srcRel < p {
			src := (srcRel + root) % p
			m, err := e.Recv(src, tag)
			if err != nil {
				return nil, fmt.Errorf("collective: gatherv recv: %w", err)
			}
			recv, ok := m.Payload.([]rankedPart[T])
			if !ok {
				return nil, fmt.Errorf("collective: gatherv payload type %T", m.Payload)
			}
			parts = append(parts, recv...)
		}
	}
	out := make([][]T, p)
	for _, pt := range parts {
		out[pt.rank] = pt.data
	}
	return out, nil
}

// AllToAllv performs the personalized all-to-all exchange of the data
// movement phase (§2.2 step 3): rank i receives parts[i] from every rank.
// It returns the p received slices indexed by sender; the caller's own
// contribution parts[me] is passed through without copying. Ownership of
// sent parts transfers to receivers.
func AllToAllv[T any](e comm.Endpoint, tag comm.Tag, parts [][]T) ([][]T, error) {
	p := e.Size()
	me := e.Rank()
	if len(parts) != p {
		return nil, fmt.Errorf("collective: alltoallv needs %d parts, got %d", p, len(parts))
	}
	// Stagger destinations so no rank is hammered by all senders at once.
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		if err := comm.SendSlice(e, dst, tag, parts[dst]); err != nil {
			return nil, fmt.Errorf("collective: alltoallv send: %w", err)
		}
	}
	out := make([][]T, p)
	out[me] = parts[me]
	for i := 1; i < p; i++ {
		src := (me - i + p) % p
		recv, err := comm.RecvSlice[T](e, src, tag)
		if err != nil {
			return nil, fmt.Errorf("collective: alltoallv recv: %w", err)
		}
		out[src] = recv
	}
	return out, nil
}
