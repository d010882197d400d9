package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpuhms/internal/hmserr"
)

func TestJSONRoundTrip(t *testing.T) {
	tr := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("round trip changed the trace")
	}
}

func TestJSONRoundTripWithMaskedLanes(t *testing.T) {
	b := NewBuilder("m", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	a := b.DeclareArray(Array{Name: "a", Type: F64, Len: 128, ReadOnly: true})
	idx := make([]int64, 32)
	for i := range idx {
		if i%3 == 0 {
			idx[i] = int64(i)
		} else {
			idx[i] = Inactive
		}
	}
	b.Warp(0, 0).Load(a, idx).FP64(2)
	tr := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("masked lanes lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{oops")); err == nil {
		t.Error("garbage must be rejected")
	}
	// Well-formed JSON, invalid trace (index out of range).
	bad := `{"kernel":"k","launch":{"Blocks":1,"ThreadsPerBlock":32,"WarpSize":32},
	  "arrays":[{"name":"a","type":"float","len":4}],
	  "warps":[{"block":0,"warp":0,"inst":[{"op":"LD","array":0,
	  "index":[9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9,9]}]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range index must be rejected by validation")
	}
	badOp := `{"kernel":"k","launch":{"Blocks":1,"ThreadsPerBlock":32,"WarpSize":32},
	  "arrays":[],"warps":[{"block":0,"warp":0,"inst":[{"op":"XYZZY","count":1}]}]}`
	if _, err := ReadJSON(strings.NewReader(badOp)); err == nil {
		t.Error("unknown op must be rejected")
	}
	badType := `{"kernel":"k","launch":{"Blocks":1,"ThreadsPerBlock":32,"WarpSize":32},
	  "arrays":[{"name":"a","type":"quaternion","len":4}],"warps":[]}`
	if _, err := ReadJSON(strings.NewReader(badType)); err == nil {
		t.Error("unknown dtype must be rejected")
	}
}

// A barrier record stands for exactly one barrier: the simulator and the
// model charge it one issue slot, so a merged run of two is invalid.
func TestReadJSONRejectsMergedBarrier(t *testing.T) {
	bar := `{"kernel":"k","launch":{"Blocks":1,"ThreadsPerBlock":32,"WarpSize":32},
	  "arrays":[],"warps":[{"block":0,"warp":0,"inst":[{"op":"BAR","count":%d}]}]}`
	if _, err := ReadJSON(strings.NewReader(fmt.Sprintf(bar, 2))); !errors.Is(err, hmserr.ErrInvalidTrace) {
		t.Errorf("BAR with count 2: err = %v, want ErrInvalidTrace", err)
	}
	if _, err := ReadJSON(strings.NewReader(fmt.Sprintf(bar, 1))); err != nil {
		t.Errorf("BAR with count 1: %v", err)
	}
}
