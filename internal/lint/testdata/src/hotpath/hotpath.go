// Package hotpath is the corpus for the hotpath analyzer: scalar values
// passed through the boxed Emit surface, scalar Pair.Value literals, and
// fmt.Sprintf-built keys at emit sites must be flagged; aggregate values,
// typed-lane emits, precomputed key tables, and allowed compat-shim sites
// must not.
package hotpath

import "fmt"

// Local stand-ins for the mr package's emit surfaces (the corpus must
// type-check without importing the real module).
type TaskContext struct{}

func (*TaskContext) Emit(key string, value any)        {}
func (*TaskContext) EmitF64(key string, value float64) {}
func (*TaskContext) EmitI64(key string, value int64)   {}

type Pair struct {
	Key   string
	Value any
}

// notAnEmitter has an Emit method but is not TaskContext; its scalar
// emissions are not the engine's concern.
type notAnEmitter struct{}

func (notAnEmitter) Emit(key string, value any) {}

func scalarValues(ctx *TaskContext, f float64, n int64, c int) {
	ctx.Emit("k", f)            // want "boxes a float64 .* EmitF64"
	ctx.Emit("k", n)            // want "boxes an? int64 .* EmitI64"
	ctx.Emit("k", c)            // want "boxes an? int .* EmitInt"
	ctx.Emit("k", 1.5)          // want "boxes a float64 .* EmitF64"
	ctx.Emit("k", 42)           // want "boxes an? int .* EmitInt"
	ctx.EmitF64("k", f)         // typed lane: fine
	ctx.EmitI64("k", n)         // typed lane: fine
	ctx.Emit("k", []float64{f}) // aggregate: boxing is unavoidable, fine
	ctx.Emit("k", [2]int{1, 2}) // array aggregate: fine
	var boxed any = f
	ctx.Emit("k", boxed) // already any: the box happened elsewhere, fine
}

func sprintfKeys(ctx *TaskContext, keys []string, c int, payload []int64) {
	ctx.Emit(fmt.Sprintf("c%d", c), payload) // want "key with fmt.Sprintf"
	ctx.Emit(fmt.Sprintf("c%d", c), c)       // want "key with fmt.Sprintf" // want "boxes an? int .* EmitInt"
	ctx.Emit(keys[c], payload)               // precomputed table: fine
	k := fmt.Sprintf("c%d", c)               // formatting off the emit line is Setup's business
	ctx.Emit(k, payload)
}

func pairLiterals(f float64, v any) []Pair {
	return []Pair{
		{Key: "k", Value: f},     // want "Pair literal boxes a float64"
		Pair{Key: "k", Value: v}, // Value already any: fine
	}
}

func pairScalar(f float64) Pair {
	return Pair{Key: "k", Value: f} // want "Pair literal boxes a float64"
}

func pairPositional(n int64) Pair {
	return Pair{"k", n} // want "Pair literal boxes an? int64"
}

func notEmitter(x notAnEmitter, f float64) {
	x.Emit("k", f) // foreign Emit method: fine
}

func allowedCompat(ctx *TaskContext, f float64) {
	ctx.Emit("k", f) //lint:allow hotpath corpus exercises the compat-shim escape hatch
}
