package adm

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestOrderedKeyScalarOrderProperty(t *testing.T) {
	// For scalar values, byte order of OrderedKey must equal Compare.
	r := rand.New(rand.NewSource(21))
	randScalar := func() Value {
		switch r.Intn(5) {
		case 0:
			return Null
		case 1:
			return NewBool(r.Intn(2) == 0)
		case 2:
			return NewInt(int64(r.Intn(4001) - 2000))
		case 3:
			return NewDouble(r.NormFloat64() * 50)
		default:
			n := r.Intn(8)
			b := make([]byte, n)
			for i := range b {
				// Include NUL bytes to exercise the escaping.
				b[i] = byte(r.Intn(4)) * byte(r.Intn(64))
			}
			return NewString(string(b))
		}
	}
	for i := 0; i < 3000; i++ {
		a, b := randScalar(), randScalar()
		ka, kb := OrderedKey(a), OrderedKey(b)
		want := Compare(a, b)
		got := bytes.Compare(ka, kb)
		if sign(got) != sign(want) {
			t.Fatalf("OrderedKey order mismatch: Compare(%v, %v)=%d but bytes.Compare=%d", a, b, want, got)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestOrderedKeyStringPrefix(t *testing.T) {
	// "a" must sort before "ab"; "a\x00b" after "a".
	cases := [][2]string{
		{"a", "ab"},
		{"a", "a\x00b"},
		{"", "a"},
		{"ab", "b"},
	}
	for _, c := range cases {
		ka := OrderedKey(NewString(c[0]))
		kb := OrderedKey(NewString(c[1]))
		if bytes.Compare(ka, kb) >= 0 {
			t.Errorf("OrderedKey(%q) should sort before OrderedKey(%q)", c[0], c[1])
		}
	}
}

func TestOrderedKeyCompositeConcatenation(t *testing.T) {
	// Concatenating (token, pk) ordered keys groups by token: every key
	// of token "ab" sorts between "aa..." and "ac...".
	key := func(tok string, pk int64) []byte {
		k := AppendOrderedKey(nil, NewString(tok))
		return AppendOrderedKey(k, NewInt(pk))
	}
	low := key("aa", 999)
	mid1 := key("ab", 1)
	mid2 := key("ab", 500)
	high := key("ac", 0)
	if !(bytes.Compare(low, mid1) < 0 && bytes.Compare(mid1, mid2) < 0 && bytes.Compare(mid2, high) < 0) {
		t.Error("composite ordered keys not grouped by leading token")
	}
}

func TestOrderedKeyEqualValuesEncodeEqually(t *testing.T) {
	a := NewBag([]Value{NewInt(1), NewInt(2)})
	b := NewBag([]Value{NewInt(2), NewInt(1)})
	if !bytes.Equal(OrderedKey(a), OrderedKey(b)) {
		t.Error("equal bags should have equal ordered keys")
	}
	r1 := EmptyRecord(2)
	r1.Set("x", NewInt(1))
	r1.Set("y", NewInt(2))
	r2 := EmptyRecord(2)
	r2.Set("y", NewInt(2))
	r2.Set("x", NewInt(1))
	if !bytes.Equal(OrderedKey(NewRecord(r1)), OrderedKey(NewRecord(r2))) {
		t.Error("equal records should have equal ordered keys")
	}
	if bytes.Equal(OrderedKey(NewInt(1)), OrderedKey(NewInt(2))) {
		t.Error("distinct values should differ")
	}
}

func TestDecodeOrderedScalarRoundTrip(t *testing.T) {
	for _, v := range []Value{
		Null, NewBool(false), NewBool(true), NewInt(0), NewInt(-7), NewInt(1010),
		NewDouble(1010.5), NewDouble(-0.25), NewDouble(1 << 60),
		NewString(""), NewString("abc"), NewString("a\x00b\x00"),
	} {
		key := append(OrderedKey(v), 0x00)
		got, rest, ok := DecodeOrderedScalar(key)
		if !ok || Compare(got, v) != 0 || !bytes.Equal(rest, []byte{0x00}) {
			t.Errorf("DecodeOrderedScalar(OrderedKey(%v)+00) = %v, %q, %v", v, got, rest, ok)
		}
	}
	if got, _, _ := DecodeOrderedScalar(OrderedKey(NewDouble(3))); got.Kind() != KindInt {
		t.Errorf("integral double decoded as %v, want an int", got.Kind())
	}
	for _, bad := range [][]byte{nil, {1}, {2, 0x80}, {3, 'a'}, {3, 0x00, 0x02}, OrderedKey(NewStringList([]string{"a"}))} {
		if _, _, ok := DecodeOrderedScalar(bad); ok {
			t.Errorf("DecodeOrderedScalar(%q) accepted a malformed or composite key", bad)
		}
	}
}
