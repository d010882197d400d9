package gpu

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownArch is the sentinel wrapped by Lookup for names the registry
// does not know. Callers map it to a 404 at the service boundary; the
// wrapped message always lists the available canonical names.
var ErrUnknownArch = errors.New("gpu: unknown architecture")

// Entry describes one registered architecture: a canonical name, optional
// aliases (all matched case-insensitively after trimming), a one-line
// description for listings, and a constructor. Build must return a fresh
// *Config on every call — callers mutate their copies freely.
type Entry struct {
	Name        string
	Aliases     []string
	Description string
	Build       func() *Config
}

var (
	regMu    sync.RWMutex
	registry = map[string]Entry{}  // canonical name -> entry
	aliases  = map[string]string{} // normalized alias -> canonical name
)

func init() {
	for _, e := range []Entry{
		{
			Name:        "k80",
			Aliases:     []string{"kepler", "keplerk80", "tesla-k80"},
			Description: "Tesla K80 (GK210): 13 SMX, 1.5 MiB L2, 6-channel GDDR5 — the paper's platform",
			Build:       KeplerK80,
		},
		{
			Name:        "fermi",
			Aliases:     []string{"c2050", "fermic2050", "tesla-c2050"},
			Description: "Tesla C2050 (Fermi): 14 SMs, 768 KiB L2, 3 GiB GDDR5",
			Build:       FermiC2050,
		},
		{
			Name:        "hbm",
			Aliases:     []string{"p100", "hbm2", "hbmclass"},
			Description: "HBM-class (P100-like): 56 SMs, 4 MiB L2, 32-channel HBM2",
			Build:       HBMClass,
		},
		{
			Name:        "chiplet",
			Aliases:     []string{"chiplet2", "mcm"},
			Description: "2-die chiplet HBM: local+remote variants of every off-chip space across an interposer",
			Build:       Chiplet,
		},
	} {
		if err := Register(e); err != nil {
			panic(err)
		}
	}
}

// normalize maps user-facing arch strings onto registry keys: trimmed,
// lowercased. The empty result is never a key.
func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Register adds an architecture to the registry. The canonical name and
// every alias must normalize to non-empty strings that are not already
// taken. Intended for builtins (at init) and for tests registering
// synthetic architectures.
func Register(e Entry) error {
	if e.Build == nil {
		return fmt.Errorf("gpu: register %q: nil Build", e.Name)
	}
	canon := normalize(e.Name)
	if canon == "" {
		return fmt.Errorf("gpu: register: empty architecture name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[canon]; dup {
		return fmt.Errorf("gpu: register %q: already registered", canon)
	}
	if prev, dup := aliases[canon]; dup {
		return fmt.Errorf("gpu: register %q: already an alias of %q", canon, prev)
	}
	for _, a := range e.Aliases {
		na := normalize(a)
		if na == "" {
			return fmt.Errorf("gpu: register %q: empty alias", canon)
		}
		if prev, dup := aliases[na]; dup {
			return fmt.Errorf("gpu: register %q: alias %q already maps to %q", canon, na, prev)
		}
		if _, dup := registry[na]; dup {
			return fmt.Errorf("gpu: register %q: alias %q is already a canonical name", canon, na)
		}
	}
	e.Name = canon
	registry[canon] = e
	for _, a := range e.Aliases {
		aliases[normalize(a)] = canon
	}
	return nil
}

// Unregister removes a registered architecture and its aliases. For tests
// that Register synthetic entries; builtins should never be unregistered.
func Unregister(name string) {
	canon := normalize(name)
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[canon]
	if !ok {
		return
	}
	delete(registry, canon)
	for _, a := range e.Aliases {
		delete(aliases, normalize(a))
	}
}

// Canonical resolves a name or alias to its canonical registry name,
// wrapping ErrUnknownArch (with the available names in the message) when
// nothing matches.
func Canonical(name string) (string, error) {
	n := normalize(name)
	regMu.RLock()
	defer regMu.RUnlock()
	if _, ok := registry[n]; ok {
		return n, nil
	}
	if canon, ok := aliases[n]; ok {
		return canon, nil
	}
	return "", fmt.Errorf("%w: %q (have %s)", ErrUnknownArch, name, strings.Join(namesLocked(), ", "))
}

// Lookup resolves a name or alias and builds a fresh, validated *Config.
// This is the single production path to a *Config: every layer — facade,
// CLI, service boot — obtains architectures here, so a profile that fails
// Validate can never be served.
func Lookup(name string) (*Config, error) {
	n := normalize(name)
	regMu.RLock()
	e, ok := registry[n]
	if !ok {
		if canon, aok := aliases[n]; aok {
			e, ok = registry[canon], true
		}
	}
	regMu.RUnlock()
	if !ok {
		regMu.RLock()
		avail := strings.Join(namesLocked(), ", ")
		regMu.RUnlock()
		return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownArch, name, avail)
	}
	cfg := e.Build()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("gpu: architecture %q: %w", e.Name, err)
	}
	return cfg, nil
}

// MustLookup is Lookup for registered builtins in examples and tests;
// it panics on error.
func MustLookup(name string) *Config {
	cfg, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Names returns the sorted canonical names of every registered
// architecture.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns the registered entry's one-line description, or "" for
// unknown names.
func Describe(name string) string {
	n := normalize(name)
	regMu.RLock()
	defer regMu.RUnlock()
	if canon, ok := aliases[n]; ok {
		n = canon
	}
	return registry[n].Description
}
