package reach

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gtpq/internal/graph"
)

// DefaultKind is the backend Build selects for an empty kind: the
// paper's 3-hop index.
const DefaultKind = "threehop"

// Builder constructs a ContourIndex for a graph.
type Builder func(g *graph.Graph) (ContourIndex, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
	codecs     = map[string]Codec{}

	buildCount atomic.Int64
)

// BuildCount returns the number of index constructions performed by
// this process (every NewThreeHop or NewTC run, directly or through
// Build, counts one).
// Snapshot loading bypasses construction entirely, which tests assert
// by reading this counter around a load.
func BuildCount() int64 { return buildCount.Load() }

// Register adds a backend under kind; it panics on duplicates (backend
// registration is an init-time affair).
func Register(kind string, b Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("reach: duplicate index kind %q", kind))
	}
	registry[kind] = b
}

// Build constructs the index kind for g (empty kind: DefaultKind). The
// graph is frozen as a side effect.
func Build(kind string, g *graph.Graph) (ContourIndex, error) {
	if kind == "" {
		kind = DefaultKind
	}
	registryMu.RLock()
	b, ok := registry[kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("reach: unknown index kind %q (available: %v)", kind, Kinds())
	}
	return b(g)
}

// Kinds lists the registered backend names, sorted.
func Kinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("threehop", func(g *graph.Graph) (ContourIndex, error) {
		return NewThreeHop(g), nil
	})
	Register("tc", func(g *graph.Graph) (ContourIndex, error) {
		return newTC(g)
	})
}
