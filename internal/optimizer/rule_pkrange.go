package optimizer

import (
	"bytes"
	"math"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

// pkRangeRule narrows a dataset scan to the primary-key range that the
// select above it implies, the way AsterixDB answers primary-key
// predicates with a primary B+-tree search instead of a full scan.
// Conjuncts lt/le/gt/ge/eq(rec.<pk field>, constant), with the constant
// on either side, bound the scan's [KeyLo, KeyHi) in adm.OrderedKey
// bytes. The select stays: the range only has to contain every key
// that qualifies, which keeps mixed-kind and null keys correct.
//
// The scan and every Assign/Select between it and the select must have
// a single parent, or the range would also cut rows another consumer
// of the scan needs.
func pkRangeRule(o *Optimizer, root *algebra.Op) (*algebra.Op, bool, error) {
	parents := parentsOf(root)
	changed := false
	algebra.Walk(root, func(op *algebra.Op) {
		if op.Kind != algebra.OpSelect {
			return
		}
		scan := scanOfChain(op.Inputs[0])
		if scan == nil {
			return
		}
		for n := op.Inputs[0]; ; n = n.Inputs[0] {
			if len(parents[n]) != 1 {
				return
			}
			if n == scan {
				break
			}
		}
		pkField, ok := o.Catalog.ResolveDataset(scan.Dataverse, scan.Dataset)
		if !ok {
			return
		}
		lo, hi := scan.KeyLo, scan.KeyHi
		for _, conj := range algebra.Conjuncts(op.Cond) {
			clo, chi, ok := pkBound(conj, scan.RecVar, pkField)
			if !ok {
				continue
			}
			if clo != nil && (lo == nil || bytes.Compare(clo, lo) > 0) {
				lo = clo
			}
			if chi != nil && (hi == nil || bytes.Compare(chi, hi) < 0) {
				hi = chi
			}
		}
		if !bytes.Equal(lo, scan.KeyLo) || !bytes.Equal(hi, scan.KeyHi) {
			scan.KeyLo, scan.KeyHi = lo, hi
			changed = true
		}
	})
	return root, changed, nil
}

// pkBound returns the key range [lo, hi) one conjunct allows, nil for
// an open end, or ok=false when the conjunct is not a comparison of the
// primary key with a scalar constant. OrderedKey agrees with
// adm.Compare only for scalars, so null, NaN and composite constants
// are skipped. An inclusive end uses the key's successor key+"\x00",
// the least key above it (ordered keys are self-terminating).
func pkBound(conj algebra.Expr, rec algebra.Var, pkField string) (lo, hi []byte, ok bool) {
	call, isCall := conj.(algebra.Call)
	if !isCall || len(call.Args) != 2 {
		return nil, nil, false
	}
	cmp := call.Fn
	field, cst := call.Args[0], call.Args[1]
	if !constFoldable(cst) {
		field, cst = cst, field
		cmp = flipCmp(cmp)
	}
	if path, isPK := fieldPathOf(field, rec); !isPK || path != pkField || !constFoldable(cst) {
		return nil, nil, false
	}
	c, err := evalConst(cst)
	if err != nil {
		return nil, nil, false
	}
	// exact: the constant's key is strict, so no key that differs from
	// the constant encodes equal to it. Ints beyond 2^53 share a double
	// encoding with their neighbours; for those, lt and gt must keep
	// the equal-key entries the select then sorts out.
	exact := true
	switch c.Kind() {
	case adm.KindBool, adm.KindString:
	case adm.KindInt, adm.KindDouble:
		f, _ := c.Num()
		if math.IsNaN(f) {
			return nil, nil, false
		}
		exact = math.Abs(f) < 1<<53
	default:
		return nil, nil, false
	}
	key := adm.OrderedKey(c)
	succ := append(key[:len(key):len(key)], 0x00)
	switch cmp {
	case "eq":
		return key, succ, true
	case "ge":
		return key, nil, true
	case "gt":
		if exact {
			return succ, nil, true
		}
		return key, nil, true
	case "le":
		return nil, succ, true
	case "lt":
		if exact {
			return nil, key, true
		}
		return nil, succ, true
	}
	return nil, nil, false
}
