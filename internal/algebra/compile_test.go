package algebra

import (
	"math/rand"
	"testing"

	"simdb/internal/adm"
)

// testCols is the column layout the differential tests compile against:
// three bound variables plus $9, which is deliberately unbound so the
// unbound-variable error path is exercised.
var testCols = map[Var]int{1: 0, 2: 1, 3: 2}

// testRows cover the full layout, a short row (column out of row), and
// rows with nulls and mixed kinds.
var testRows = [][]adm.Value{
	{adm.NewInt(7), adm.NewString("quick brown fox"), adm.NewDouble(0.5)},
	{adm.NewInt(-3), adm.NewString(""), adm.Null},
	{adm.Null, adm.NewStringList([]string{"a", "b"}), adm.NewBool(true)},
	{adm.NewInt(1)}, // short: columns 1 and 2 are out of row
	{adm.NewRecord(adm.NewRecordFromFields([]string{"f", "g"}, []adm.Value{adm.NewString("hello world"), adm.NewInt(4)})),
		adm.NewString("f"), adm.NewDouble(2)},
}

// assertSame evaluates e both ways over every test row and requires
// identical outcomes: same value (by ADM rendering, which distinguishes
// kinds) or same error string.
func assertSame(t *testing.T, e Expr) {
	t.Helper()
	fn, ok := Compile(e, testCols)
	if !ok {
		t.Fatalf("Compile declined %s", e)
	}
	env := NewEnv(testCols, nil)
	for i, row := range testRows {
		env.Reset(row)
		iv, ierr := Eval(e, env)
		cv, cerr := fn(row)
		if (ierr == nil) != (cerr == nil) {
			t.Fatalf("row %d, expr %s: interpreted err=%v, compiled err=%v", i, e, ierr, cerr)
		}
		if ierr != nil {
			if ierr.Error() != cerr.Error() {
				t.Fatalf("row %d, expr %s: error text diverged:\n  interpreted: %v\n  compiled:    %v", i, e, ierr, cerr)
			}
			continue
		}
		if iv.Kind() != cv.Kind() || iv.String() != cv.String() {
			t.Fatalf("row %d, expr %s: interpreted %v (%v), compiled %v (%v)", i, e, iv, iv.Kind(), cv, cv.Kind())
		}
	}
}

func TestCompileMatchesEvalFixed(t *testing.T) {
	exprs := []Expr{
		CInt(42),
		V(1),
		V(9), // unbound
		V(3), // out of row on the short row
		F("eq", V(1), CInt(7)),
		F("lt", V(1), V(3)),
		F("ge", F("add", V(1), CInt(1)), CInt(8)),
		F("add", V(1), V(3)),
		F("mul", CInt(6), CInt(7)),                                  // folds
		F("div", CInt(1), CInt(0)),                                  // folds to an error
		F("and", C(adm.NewBool(false)), F("div", CInt(1), CInt(0))), // short-circuit past folded error
		F("or", F("eq", V(1), CInt(7)), F("div", CInt(1), CInt(0))),
		F("and", F("gt", V(1), CInt(0)), F("lt", V(1), CInt(100))),
		F("not", F("is-null", V(3))),
		F("not", V(2)), // not on a string -> error
		F("field-access", V(1), CStr("f")),
		F("field-access", V(1), CStr("missing")),
		F("similarity-jaccard", F("word-tokens", V(2)), F("word-tokens", CStr("quick fox"))),
		F("similarity-jaccard-check", F("word-tokens", V(2)), F("word-tokens", CStr("quick brown fox")), C(adm.NewDouble(0.8))),
		F("edit-distance", V(2), CStr("quick brown fix")),
		F("prefix-len-jaccard", F("len", F("word-tokens", CStr("a b c d"))), C(adm.NewDouble(0.8))), // folds
		F("t-occurrence-jaccard", CInt(5), C(adm.NewDouble(0.8))),                                   // folds
		F("no-such-function", V(1)),
		F("no-such-function", F("div", CInt(1), CInt(0))), // arg error wins over unknown-function
		F("eq", V(1)),              // wrong arity -> builtin arity error
		F("add", V(1), V(1), V(1)), // wrong arity for fused arith
		F("len", V(2)),
		F("list", V(1), V(2), V(3)),
		F("record", CStr("k"), V(1)),
		F("record", V(1), V(2)), // field name not a string on most rows
	}
	// Jaccard selections with a constant query side: both comparison
	// orders, strict and inclusive, and candidates that are token lists,
	// plain strings, lists or null.
	q := F("word-tokens", CStr("quick brown fox"))
	jac := func(cand Expr) Expr { return F("similarity-jaccard", cand, q) }
	half := C(adm.NewDouble(0.5))
	exprs = append(exprs,
		F("ge", jac(F("word-tokens", V(2))), half),
		F("gt", jac(F("word-tokens", V(2))), half),
		F("le", half, jac(F("word-tokens", V(2)))),
		F("lt", half, jac(F("word-tokens", V(2)))),
		F("ge", jac(V(2)), half), // plain string, list, or out of row
		F("ge", jac(V(3)), half), // null on row 1
		F("ge", jac(V(1)), half), // null on row 2, non-list elsewhere
		F("ge", jac(F("list", CStr("quick"), CStr("fox"))), half),
		F("ge", jac(F("word-tokens", V(2))), C(adm.NewDouble(0))),
		F("ge", jac(F("word-tokens", V(2))), CInt(1)),
		F("gt", jac(F("word-tokens", V(2))), CInt(0)),
	)
	for _, e := range exprs {
		assertSame(t, e)
	}
}

// TestCompileDeclinesComprehension: anything containing a comprehension
// or name reference falls back to the interpreter.
func TestCompileDeclinesComprehension(t *testing.T) {
	comp := Comprehension{
		Clauses: []CompClause{{Kind: "for", V: "x", E: V(2)}},
		Ret:     NameRef{Name: "x"},
	}
	for _, e := range []Expr{comp, F("len", comp), NameRef{Name: "x"}} {
		if _, ok := Compile(e, testCols); ok {
			t.Fatalf("Compile accepted %s; want decline", e)
		}
	}
}

// TestCompileConstFoldShared: a folded constant is computed once and the
// resulting closure is safe to share across goroutines.
func TestCompileConstFoldShared(t *testing.T) {
	e := F("word-tokens", CStr("the quick brown fox"))
	fn, ok := Compile(e, testCols)
	if !ok {
		t.Fatal("Compile declined")
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				v, err := fn(nil)
				if err != nil {
					done <- err
					return
				}
				if len(v.Elems()) != 4 {
					done <- errUnexpected
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errUnexpected = &tokenCountError{}

type tokenCountError struct{}

func (*tokenCountError) Error() string { return "unexpected token count" }

// genExpr builds a random expression over the test layout. It only
// emits compilable forms (no comprehensions), including unknown
// functions, wrong arities, unbound variables, and nulls, so the error
// paths are compared too.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(7) {
		case 0:
			return CInt(int64(r.Intn(21) - 10))
		case 1:
			return C(adm.NewDouble(float64(r.Intn(100)) / 10))
		case 2:
			return CStr([]string{"", "fox", "quick brown fox", "hello world"}[r.Intn(4)])
		case 3:
			return C(adm.NewBool(r.Intn(2) == 0))
		case 4:
			return C(adm.Null)
		default:
			return V(Var(r.Intn(5))) // 0 and 4 are unbound
		}
	}
	sub := func() Expr { return genExpr(r, depth-1) }
	switch r.Intn(14) {
	case 0:
		return F([]string{"eq", "neq", "lt", "le", "gt", "ge"}[r.Intn(6)], sub(), sub())
	case 1:
		return F([]string{"add", "sub", "mul", "div", "mod"}[r.Intn(5)], sub(), sub())
	case 2:
		return F("and", sub(), sub())
	case 3:
		return F("or", sub(), sub(), sub())
	case 4:
		return F("not", sub())
	case 5:
		return F("is-null", sub())
	case 6:
		return F("field-access", sub(), sub())
	case 7:
		return F("word-tokens", sub())
	case 8:
		return F("similarity-jaccard", F("word-tokens", sub()), F("word-tokens", sub()))
	case 9:
		return F("len", sub())
	case 10:
		return F("list", sub(), sub())
	case 11:
		return F("edit-distance", sub(), sub())
	case 12:
		// Wrong arities and unknown functions: error paths must agree too.
		return F([]string{"eq", "not", "no-such-fn"}[r.Intn(3)], sub())
	default:
		return F("neg", sub())
	}
}

// TestCompileMatchesEvalRandom is the differential property test: many
// random expressions, every outcome identical between the compiler and
// the interpreter.
func TestCompileMatchesEvalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260809))
	for i := 0; i < 2000; i++ {
		assertSame(t, genExpr(r, 1+r.Intn(4)))
	}
}

// FuzzCompiledEval drives the same differential property from a fuzzed
// seed: the input bytes seed the expression generator, so the corpus
// explores expression shapes rather than raw syntax.
func FuzzCompiledEval(f *testing.F) {
	f.Add(int64(1), 3)
	f.Add(int64(42), 5)
	f.Add(int64(-7), 2)
	f.Fuzz(func(t *testing.T, seed int64, depth int) {
		if depth < 0 || depth > 6 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		e := genExpr(r, depth)
		fn, ok := Compile(e, testCols)
		if !ok {
			t.Fatalf("generator emitted a non-compilable expression: %s", e)
		}
		env := NewEnv(testCols, nil)
		for _, row := range testRows {
			env.Reset(row)
			iv, ierr := Eval(e, env)
			cv, cerr := fn(row)
			if (ierr == nil) != (cerr == nil) {
				t.Fatalf("expr %s: interpreted err=%v, compiled err=%v", e, ierr, cerr)
			}
			if ierr != nil {
				if ierr.Error() != cerr.Error() {
					t.Fatalf("expr %s: error text diverged: %v vs %v", e, ierr, cerr)
				}
				continue
			}
			if iv.Kind() != cv.Kind() || iv.String() != cv.String() {
				t.Fatalf("expr %s: interpreted %v, compiled %v", e, iv, cv)
			}
		}
	})
}

// The Eval benchmarks measure the paper's per-tuple cost three ways:
// the interpreter with a per-tuple Env (the pre-refactor shape), the
// interpreter with a reused Env, and the compiled closure.
var benchExpr = F("ge",
	F("similarity-jaccard", F("word-tokens", V(2)), F("word-tokens", CStr("quick brown fox jumps"))),
	C(adm.NewDouble(0.3)))

var benchRow = []adm.Value{adm.NewInt(1), adm.NewString("the quick brown fox jumps over the lazy dog"), adm.NewDouble(0.5)}

func BenchmarkEvalInterpretedNewEnv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Eval(benchExpr, NewEnv(testCols, benchRow)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalInterpretedReusedEnv(b *testing.B) {
	env := NewEnv(testCols, nil)
	for i := 0; i < b.N; i++ {
		env.Reset(benchRow)
		if _, err := Eval(benchExpr, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCompiled(b *testing.B) {
	fn, ok := Compile(benchExpr, testCols)
	if !ok {
		b.Fatal("Compile declined")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(benchRow); err != nil {
			b.Fatal(err)
		}
	}
}
