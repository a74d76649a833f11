package comm

import (
	"fmt"
	"unsafe"
)

// SizeOf returns the accounted wire size of one value of type T: the
// in-memory size of its top-level representation. For the fixed-width key
// and count types used throughout this repository it equals the serialized
// size; for pointer-bearing types it is a lower bound (documented
// limitation of the simulation).
func SizeOf[T any]() int64 {
	var zero T
	return int64(unsafe.Sizeof(zero))
}

// SliceBytes returns the accounted wire size of a slice of T.
func SliceBytes[T any](s []T) int64 {
	return int64(len(s)) * SizeOf[T]()
}

// SendValue sends a single value of type T to dst.
func SendValue[T any](e Endpoint, dst int, tag Tag, v T) error {
	RegisterWire[T]()
	return e.Send(dst, tag, v, SizeOf[T]())
}

// RecvValue receives a single value of type T from src (or AnySource).
// It fails if the matching message holds a different payload type,
// which indicates a tag-discipline bug in the caller.
func RecvValue[T any](e Endpoint, src int, tag Tag) (T, error) {
	RegisterWire[T]()
	m, err := e.Recv(src, tag)
	if err != nil {
		var zero T
		return zero, err
	}
	v, ok := m.Payload.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("comm: rank %d tag %d: payload type %T, want %T", e.Rank(), tag, m.Payload, zero)
	}
	return v, nil
}

// SendSlice sends a slice of T to dst. Ownership of the slice transfers to
// the receiver; the sender must not modify it afterwards.
func SendSlice[T any](e Endpoint, dst int, tag Tag, s []T) error {
	RegisterWire[[]T]()
	return e.Send(dst, tag, s, SliceBytes(s))
}

// RecvSlice receives a slice of T from src (or AnySource).
func RecvSlice[T any](e Endpoint, src int, tag Tag) ([]T, error) {
	RegisterWire[[]T]()
	m, err := e.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	if m.Payload == nil {
		return nil, nil
	}
	s, ok := m.Payload.([]T)
	if !ok {
		return nil, fmt.Errorf("comm: rank %d tag %d: payload type %T, want []%T", e.Rank(), tag, m.Payload, *new(T))
	}
	return s, nil
}
