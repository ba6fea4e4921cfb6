package adm

import (
	"encoding/binary"
	"math"
)

// Order-preserving ("memcomparable") key encoding: for scalar values a
// and b, bytes.Compare(OrderedKey(a), OrderedKey(b)) == Compare(a, b).
// The storage layer keys every B+-tree-style component with this
// encoding so that binary key comparison implements the data model's
// order. Encodings are self-terminating, so concatenating ordered keys
// yields an order-preserving composite key — the inverted indexes rely
// on this for their (token, primary key) entries.
//
// Scalars are fully supported. Lists, bags, and records fall back to an
// encoding that is consistent (equal values encode equally) and totally
// ordered but only aligned with Compare within same-length prefixes;
// SimDB never range-scans composite-valued keys, so this suffices.

// AppendOrderedKey appends the ordered-key encoding of v to dst.
func AppendOrderedKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(rankOf(v.kind)))
	switch v.kind {
	case KindNull:
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt, KindDouble:
		f, _ := v.Num()
		dst = appendOrderedFloat(dst, f)
	case KindString:
		dst = appendOrderedBytes(dst, v.s)
	case KindList, KindBag, KindRecord:
		// Composite fallback: element count then recursively ordered
		// elements. Bags use their sorted view, records their
		// name-sorted view, so equal values still encode equally.
		switch v.kind {
		case KindList:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.elems)))
			for _, e := range v.elems {
				dst = AppendOrderedKey(dst, e)
			}
		case KindBag:
			sorted := sortedCopy(v.elems)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(sorted)))
			for _, e := range sorted {
				dst = AppendOrderedKey(dst, e)
			}
		case KindRecord:
			idx := v.rec.sortedIdx()
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(idx)))
			for _, i := range idx {
				dst = appendOrderedBytes(dst, v.rec.names[i])
				dst = AppendOrderedKey(dst, v.rec.vals[i])
			}
		}
	}
	return dst
}

// OrderedKey returns the ordered-key encoding of v.
func OrderedKey(v Value) []byte { return AppendOrderedKey(nil, v) }

// appendOrderedFloat encodes a float64 so that byte order equals
// numeric order: flip all bits for negatives, flip the sign bit for
// non-negatives, then store big-endian. NaN is canonicalized below
// -Inf, matching Compare's NaN-first total order; -0.0 becomes +0.0.
func appendOrderedFloat(dst []byte, f float64) []byte {
	var bits uint64
	switch {
	case math.IsNaN(f):
		bits = 0 // below every flipped negative
	default:
		if f == 0 {
			f = 0 // canonicalize -0.0
		}
		bits = math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// appendOrderedBytes encodes a string with 0x00-escaping and a 0x00
// 0x01 terminator, preserving lexicographic order and remaining
// self-terminating (0x00 inside the payload becomes 0x00 0xFF, which
// sorts after any terminator).
func appendOrderedBytes(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// DecodeOrderedScalar decodes the scalar ordered key at the front of b
// and returns its value and the bytes after it; ok is false when b does
// not start with a complete scalar key. Ints and doubles share one
// encoding, so numbers decode as an int when integral and exactly
// representable, else as a double. EXPLAIN uses it to print key ranges.
func DecodeOrderedScalar(b []byte) (v Value, rest []byte, ok bool) {
	if len(b) == 0 {
		return Null, nil, false
	}
	switch int(b[0]) {
	case rankOf(KindNull):
		return Null, b[1:], true
	case rankOf(KindBool):
		if len(b) < 2 {
			return Null, nil, false
		}
		return NewBool(b[1] != 0), b[2:], true
	case rankOf(KindInt):
		if len(b) < 9 {
			return Null, nil, false
		}
		bits := binary.BigEndian.Uint64(b[1:])
		var f float64
		switch {
		case bits == 0:
			f = math.NaN()
		case bits&(1<<63) != 0:
			f = math.Float64frombits(bits &^ (1 << 63))
		default:
			f = math.Float64frombits(^bits)
		}
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return NewInt(int64(f)), b[9:], true
		}
		return NewDouble(f), b[9:], true
	case rankOf(KindString):
		var s []byte
		for i := 1; i+1 < len(b); i++ {
			if b[i] != 0x00 {
				s = append(s, b[i])
				continue
			}
			switch b[i+1] {
			case 0x01:
				return NewString(string(s)), b[i+2:], true
			case 0xFF:
				s = append(s, 0x00)
				i++
			default:
				return Null, nil, false
			}
		}
	}
	return Null, nil, false
}
