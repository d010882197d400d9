package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// The JSON wire format for traces. Traces generated by other tools (e.g. a
// real SASSI pass post-processed into this schema) can be imported, and
// generated traces exported for inspection. Compute runs are stored with
// their counts; memory instructions store their absolute per-lane indices
// (Inactive lanes as -1): WriteJSON expands lane patterns and ReadJSON
// interns them again.

type jsonTrace struct {
	Kernel string      `json:"kernel"`
	Launch Launch      `json:"launch"`
	Arrays []jsonArray `json:"arrays"`
	Warps  []jsonWarp  `json:"warps"`
}

type jsonArray struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Len      int    `json:"len"`
	Width    int    `json:"width,omitempty"`
	ReadOnly bool   `json:"read_only,omitempty"`
}

type jsonWarp struct {
	Block int        `json:"block"`
	Warp  int        `json:"warp"`
	Inst  []jsonInst `json:"inst"`
}

type jsonInst struct {
	Op    string  `json:"op"`
	Count int     `json:"count,omitempty"`
	Array int     `json:"array,omitempty"`
	Index []int64 `json:"index,omitempty"`
}

func dtypeName(d DType) string { return d.String() }

func parseDType(s string) (DType, error) {
	for _, d := range []DType{F32, F64, I32, U8} {
		if d.String() == s {
			return d, nil
		}
	}
	return F32, fmt.Errorf("trace: unknown dtype %q", s)
}

var opNames = map[Op]string{
	OpInt: "INT", OpFP32: "FP32", OpFP64: "FP64", OpSFU: "SFU",
	OpLoad: "LD", OpStore: "ST", OpSync: "BAR", OpBranch: "BRA",
	OpAtomic: "ATOM",
}

func parseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name == s {
			return op, nil
		}
	}
	return OpInt, fmt.Errorf("trace: unknown op %q", s)
}

// WriteJSON serializes the trace.
func WriteJSON(w io.Writer, t *Trace) error {
	jt := jsonTrace{Kernel: t.Kernel, Launch: t.Launch}
	for _, a := range t.Arrays {
		jt.Arrays = append(jt.Arrays, jsonArray{
			Name: a.Name, Type: dtypeName(a.Type), Len: a.Len,
			Width: a.Width, ReadOnly: a.ReadOnly,
		})
	}
	for _, wt := range t.Warps {
		jw := jsonWarp{Block: wt.Block, Warp: wt.Warp}
		for _, in := range wt.Inst {
			ji := jsonInst{Op: opNames[in.Op]}
			if in.Op.IsMem() {
				ji.Array = int(in.Array)
				ji.Index = t.Lanes(&in, nil)
			} else {
				ji.Count = in.Count
			}
			jw.Inst = append(jw.Inst, ji)
		}
		jt.Warps = append(jt.Warps, jw)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jt)
}

// ReadJSON deserializes and validates a trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	t := &Trace{Kernel: jt.Kernel, Launch: jt.Launch}
	for _, a := range jt.Arrays {
		dt, err := parseDType(a.Type)
		if err != nil {
			return nil, err
		}
		t.Arrays = append(t.Arrays, Array{
			Name: a.Name, Type: dt, Len: a.Len, Width: a.Width, ReadOnly: a.ReadOnly,
		})
	}
	var patterns interner
	for _, jw := range jt.Warps {
		wt := WarpTrace{Block: jw.Block, Warp: jw.Warp}
		for _, ji := range jw.Inst {
			op, err := parseOp(ji.Op)
			if err != nil {
				return nil, err
			}
			in := Inst{Op: op}
			if op.IsMem() {
				in.Count = 1
				in.Array = ArrayID(ji.Array)
				in.Pattern, in.First = patterns.intern(t, in.Array, op, ji.Index)
			} else {
				in.Count = ji.Count
				if in.Count == 0 {
					in.Count = 1
				}
			}
			wt.Inst = append(wt.Inst, in)
		}
		t.Warps = append(t.Warps, wt)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
