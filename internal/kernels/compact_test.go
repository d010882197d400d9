package kernels

import (
	"reflect"
	"testing"

	"gpuhms/internal/trace"
)

// TestTracesAreCompact pins the interned trace representation over every
// bundled kernel at scale 1: a memory instruction holds no lane vector of
// its own (trace.Inst has only scalar fields), and the traces' 221,110
// memory instructions share 21,952 lane patterns, one per distinct (array,
// op, active lanes, offsets from the first active lane).
func TestTracesAreCompact(t *testing.T) {
	typ := reflect.TypeOf(trace.Inst{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Slice, reflect.Array, reflect.Pointer, reflect.Map:
			t.Errorf("trace.Inst.%s is a %s: instructions must not carry per-lane storage", f.Name, f.Type)
		}
	}
	const wantInsts, wantPatterns = 221110, 21952
	var insts, patterns int
	for _, name := range Names() {
		tr := MustGet(name).Trace(1)
		patterns += len(tr.Patterns)
		uses := 0
		for _, p := range tr.Patterns {
			uses += p.Uses
		}
		n := 0
		for _, w := range tr.Warps {
			for _, in := range w.Inst {
				if in.Op.IsMem() {
					n++
				}
			}
		}
		if uses != n {
			t.Errorf("%s: patterns count %d uses, trace has %d memory instructions", name, uses, n)
		}
		insts += n
	}
	if insts != wantInsts || patterns != wantPatterns {
		t.Errorf("%d memory instructions in %d lane patterns, want %d in %d",
			insts, patterns, wantInsts, wantPatterns)
	}
}
