// Package hotpath is the corpus for the hotpath analyzer: scalar values
// passed through the boxed Emit surface, scalar Pair.Value literals, and
// fmt.Sprintf-built keys at emit sites must be flagged; aggregate values,
// values already boxed, precomputed key tables, and allowed sites must not.
package hotpath

import "fmt"

// Local stand-in for the mr package's emit surface (the corpus must
// type-check without importing the real module).
type TaskContext struct{}

func (*TaskContext) Emit(key string, value any) {}

type Pair struct {
	Key   string
	Value any
}

// notAnEmitter has an Emit method but is not TaskContext; its scalar
// emissions are not the engine's concern.
type notAnEmitter struct{}

func (notAnEmitter) Emit(key string, value any) {}

func scalarValues(ctx *TaskContext, f float64, n int64, c int) {
	ctx.Emit("k", f)            // want "boxes a float64 .* emit the partial from Cleanup"
	ctx.Emit("k", n)            // want "boxes an? int64 .* emit the partial from Cleanup"
	ctx.Emit("k", c)            // want "boxes an? int .* emit the partial from Cleanup"
	ctx.Emit("k", 1.5)          // want "boxes a float64 .* emit the partial from Cleanup"
	ctx.Emit("k", 42)           // want "boxes an? int .* emit the partial from Cleanup"
	ctx.Emit("k", []float64{f}) // aggregate: boxing is unavoidable, fine
	ctx.Emit("k", [2]int{1, 2}) // array aggregate: fine
	var boxed any = f
	ctx.Emit("k", boxed) // already any: the box happened elsewhere, fine
}

func sprintfKeys(ctx *TaskContext, keys []string, c int, payload []int64) {
	ctx.Emit(fmt.Sprintf("c%d", c), payload) // want "key with fmt.Sprintf"
	ctx.Emit(fmt.Sprintf("c%d", c), c)       // want "key with fmt.Sprintf" // want "boxes an? int .* emit the partial from Cleanup"
	ctx.Emit(keys[c], payload)               // precomputed table: fine
	k := fmt.Sprintf("c%d", c)               // formatting off the emit line is Setup's business
	ctx.Emit(k, payload)
}

func pairLiterals(f float64, v any) []Pair {
	return []Pair{
		{Key: "k", Value: f},     // want "Pair literal boxes a float64 .* emit the partial from Cleanup"
		Pair{Key: "k", Value: v}, // Value already any: fine
	}
}

func pairScalar(f float64) Pair {
	return Pair{Key: "k", Value: f} // want "Pair literal boxes a float64 .* emit the partial from Cleanup"
}

func pairPositional(n int64) Pair {
	return Pair{"k", n} // want "Pair literal boxes an? int64 .* emit the partial from Cleanup"
}

func notEmitter(x notAnEmitter, f float64) {
	x.Emit("k", f) // foreign Emit method: fine
}

func allowedCompat(ctx *TaskContext, f float64) {
	ctx.Emit("k", f) //lint:allow hotpath corpus exercises the escape hatch
}
