package optimizer

import (
	"bytes"
	"math"
	"testing"

	"simdb/internal/adm"
	"simdb/internal/algebra"
)

func TestPKBound(t *testing.T) {
	const rec = algebra.Var(1)
	id := algebra.F("field-access", algebra.V(rec), algebra.CStr("id"))
	key := func(v adm.Value) []byte { return adm.OrderedKey(v) }
	succ := func(v adm.Value) []byte { return append(adm.OrderedKey(v), 0) }
	big := adm.NewInt(1<<53 + 1) // shares its double key with 1<<53
	cases := []struct {
		name   string
		conj   algebra.Expr
		lo, hi []byte
		ok     bool
	}{
		{"lt", algebra.F("lt", id, algebra.CInt(10)), nil, key(adm.NewInt(10)), true},
		{"le", algebra.F("le", id, algebra.CInt(10)), nil, succ(adm.NewInt(10)), true},
		{"gt", algebra.F("gt", id, algebra.CInt(10)), succ(adm.NewInt(10)), nil, true},
		{"ge", algebra.F("ge", id, algebra.CInt(10)), key(adm.NewInt(10)), nil, true},
		{"eq", algebra.F("eq", id, algebra.CStr("x")), key(adm.NewString("x")), succ(adm.NewString("x")), true},
		{"flipped", algebra.F("lt", algebra.C(adm.NewDouble(2.5)), id), succ(adm.NewDouble(2.5)), nil, true},
		{"folded constant", algebra.F("ge", id, algebra.F("add", algebra.CInt(1), algebra.CInt(2))), key(adm.NewInt(3)), nil, true},
		{"inexact lt", algebra.F("lt", id, algebra.C(big)), nil, succ(big), true},
		{"inexact gt", algebra.F("gt", id, algebra.C(big)), key(big), nil, true},
		{"null", algebra.F("lt", id, algebra.C(adm.Null)), nil, nil, false},
		{"nan", algebra.F("lt", id, algebra.C(adm.NewDouble(math.NaN()))), nil, nil, false},
		{"list", algebra.F("lt", id, algebra.C(adm.NewStringList([]string{"a"}))), nil, nil, false},
		{"other field", algebra.F("lt", algebra.F("field-access", algebra.V(rec), algebra.CStr("v")), algebra.CInt(1)), nil, nil, false},
		{"not constant", algebra.F("lt", id, algebra.V(2)), nil, nil, false},
		{"neq", algebra.F("neq", id, algebra.CInt(1)), nil, nil, false},
	}
	for _, c := range cases {
		lo, hi, ok := pkBound(c.conj, rec, "id")
		if ok != c.ok || !bytes.Equal(lo, c.lo) || !bytes.Equal(hi, c.hi) {
			t.Errorf("%s: pkBound = [%x, %x) %v, want [%x, %x) %v", c.name, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

// TestPKRangeRuleSharedScan: a scan read by two selects, only one of
// which bounds the key, must stay whole; an unshared one is narrowed to
// the intersection of its select's bounds.
func TestPKRangeRuleSharedScan(t *testing.T) {
	o := &Optimizer{Catalog: newTestCatalog(), Alloc: &algebra.VarAlloc{}}
	scanOf := func() *algebra.Op {
		s := algebra.NewOp(algebra.OpScan)
		s.Dataverse, s.Dataset = "Default", "ARevs"
		s.PKVar, s.RecVar = o.Alloc.New(), o.Alloc.New()
		return s
	}
	field := func(s *algebra.Op, f string) algebra.Expr {
		return algebra.F("field-access", algebra.V(s.RecVar), algebra.CStr(f))
	}

	shared := scanOf()
	asg := algebra.NewOp(algebra.OpAssign, shared)
	asg.AssignVars = []algebra.Var{o.Alloc.New()}
	asg.AssignExprs = []algebra.Expr{field(shared, "summary")}
	ranged := algebra.NewOp(algebra.OpSelect, asg)
	ranged.Cond = algebra.F("lt", field(shared, "id"), algebra.CInt(5))
	other := algebra.NewOp(algebra.OpSelect, asg)
	other.Cond = algebra.F("eq", field(shared, "summary"), algebra.CStr("x"))
	join := algebra.NewOp(algebra.OpJoin, ranged, other)
	join.Cond = algebra.C(adm.NewBool(true))

	alone := scanOf()
	sel := algebra.NewOp(algebra.OpSelect, alone)
	sel.Cond = algebra.AndAll([]algebra.Expr{
		algebra.F("ge", field(alone, "id"), algebra.CInt(2)),
		algebra.F("lt", field(alone, "id"), algebra.CInt(9)),
		algebra.F("le", field(alone, "id"), algebra.CInt(6)),
	})
	root := algebra.NewOp(algebra.OpJoin, join, sel)
	root.Cond = algebra.C(adm.NewBool(true))

	if _, changed, err := pkRangeRule(o, root); err != nil || !changed {
		t.Fatalf("pkRangeRule: changed=%v err=%v", changed, err)
	}
	if shared.KeyLo != nil || shared.KeyHi != nil {
		t.Errorf("shared scan narrowed to [%x, %x)", shared.KeyLo, shared.KeyHi)
	}
	if !bytes.Equal(alone.KeyLo, adm.OrderedKey(adm.NewInt(2))) || !bytes.Equal(alone.KeyHi, append(adm.OrderedKey(adm.NewInt(6)), 0)) {
		t.Errorf("unshared scan range [%x, %x), want [2, 6]", alone.KeyLo, alone.KeyHi)
	}
	if _, changed, _ := pkRangeRule(o, root); changed {
		t.Error("second pass changed the plan again")
	}
}
