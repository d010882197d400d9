package gpu

import (
	"math"
	"testing"
)

func TestKeplerK80Valid(t *testing.T) {
	cfg := KeplerK80()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.SMs != 13 || cfg.WarpSize != 32 {
		t.Errorf("unexpected SM/warp config: %d/%d", cfg.SMs, cfg.WarpSize)
	}
	if cfg.DRAM.Controllers != 6 {
		t.Errorf("controllers = %d, want 6 (M=6 for Kepler)", cfg.DRAM.Controllers)
	}
	if cfg.DRAM.TotalBanks() != 96 {
		t.Errorf("total banks = %d, want 96", cfg.DRAM.TotalBanks())
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.SMs = 0 }},
		{"warp not power of two", func(c *Config) { c.WarpSize = 33 }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"no controllers", func(c *Config) { c.DRAM.Controllers = 0 }},
		{"row bytes not pow2", func(c *Config) { c.DRAM.RowBytes = 3000 }},
		{"column bytes zero", func(c *Config) { c.DRAM.ColumnBytes = 0 }},
		{"L2 no sets", func(c *Config) { c.L2 = CacheGeometry{SizeBytes: 64, LineBytes: 128, Ways: 4} }},
		{"const no sets", func(c *Config) { c.Constant = CacheGeometry{SizeBytes: 1, LineBytes: 64, Ways: 4} }},
		{"tex no sets", func(c *Config) { c.Texture = CacheGeometry{SizeBytes: 1, LineBytes: 128, Ways: 4} }},
		{"no shared banks", func(c *Config) { c.SharedBanks = 0 }},
		{"transaction bytes not pow2", func(c *Config) { c.TransactionBytes = 96 }},
		{"transaction bytes zero", func(c *Config) { c.TransactionBytes = 0 }},
		{"L2 line not pow2", func(c *Config) { c.L2.LineBytes = 96 }},
		{"const line not pow2", func(c *Config) { c.Constant.LineBytes = 48 }},
		{"tex line not pow2", func(c *Config) { c.Texture.LineBytes = 24 }},
		{"tex line negative", func(c *Config) { c.Texture.LineBytes = -32 }},
		{"shared bank bytes not pow2", func(c *Config) { c.SharedBankBytes = 6 }},
		{"shared bank bytes zero", func(c *Config) { c.SharedBankBytes = 0 }},
		{"shared banks not pow2", func(c *Config) { c.SharedBanks = 24 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := KeplerK80()
			m.mut(cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestMemSpaceProperties(t *testing.T) {
	if !Shared.Writable() || !Global.Writable() {
		t.Error("global and shared must be writable")
	}
	if Constant.Writable() || Texture1D.Writable() || Texture2D.Writable() {
		t.Error("constant and texture must be read-only")
	}
	if Shared.OffChip() {
		t.Error("shared memory is on-chip")
	}
	for _, sp := range []MemSpace{Global, Constant, Texture1D, Texture2D} {
		if !sp.OffChip() {
			t.Errorf("%s should be off-chip", sp.LongString())
		}
	}
}

func TestMemSpaceStrings(t *testing.T) {
	want := map[MemSpace][2]string{
		Global:    {"G", "global"},
		Shared:    {"S", "shared"},
		Constant:  {"C", "constant"},
		Texture1D: {"T", "texture1D"},
		Texture2D: {"2T", "texture2D"},
	}
	for sp, names := range want {
		if sp.String() != names[0] || sp.LongString() != names[1] {
			t.Errorf("%d: %q/%q", sp, sp.String(), sp.LongString())
		}
	}
	if MemSpace(99).String() != "MemSpace(99)" {
		t.Error("unknown space string")
	}
}

func TestParseSpaceRoundTrip(t *testing.T) {
	for _, sp := range Spaces {
		for _, name := range []string{sp.String(), sp.LongString()} {
			got, err := ParseSpace(name)
			if err != nil || got != sp {
				t.Errorf("ParseSpace(%q) = %v, %v", name, got, err)
			}
		}
	}
	if _, err := ParseSpace("bogus"); err == nil {
		t.Error("bogus space should error")
	}
}

func TestCacheGeometrySets(t *testing.T) {
	g := CacheGeometry{SizeBytes: 1536 << 10, LineBytes: 128, Ways: 16}
	if got := g.Sets(); got != 768 {
		t.Errorf("sets = %d", got)
	}
}

func TestActiveSMs(t *testing.T) {
	cfg := KeplerK80()
	for blocks, want := range map[int]int{0: 1, 1: 1, 5: 5, 13: 13, 64: 13} {
		if got := cfg.ActiveSMs(blocks); got != want {
			t.Errorf("ActiveSMs(%d) = %d, want %d", blocks, got, want)
		}
	}
}

func TestClockConversions(t *testing.T) {
	cfg := KeplerK80()
	if math.Abs(cfg.CyclesPerNS()*cfg.NSPerCycle()-1) > 1e-12 {
		t.Error("cycle/ns conversions must be inverses")
	}
}

func TestCapacityBytes(t *testing.T) {
	cfg := KeplerK80()
	if got := cfg.CapacityBytes(Shared); got != 48<<10 {
		t.Errorf("shared capacity = %d", got)
	}
	if got := cfg.CapacityBytes(Constant); got != 64<<10 {
		t.Errorf("constant capacity = %d", got)
	}
	for _, sp := range []MemSpace{Global, Texture1D, Texture2D} {
		if got := cfg.CapacityBytes(sp); got != 12<<30 {
			t.Errorf("%s capacity = %d, want device DRAM size", sp.LongString(), got)
		}
	}
	if got := FermiC2050().CapacityBytes(Global); got != 3<<30 {
		t.Errorf("fermi global capacity = %d", got)
	}
	cfg.GlobalBytes = 0
	if got := cfg.CapacityBytes(Global); got != -1 {
		t.Errorf("zero GlobalBytes must report unbounded (-1), got %d", got)
	}
}
