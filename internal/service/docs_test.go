package service

import (
	"os"
	"strings"
	"testing"
)

// TestDocsCoverRegisteredRoutes enumerates the route table — the one
// place routes are declared — as both constructors build it, a ring of
// one (NewHandler) and a ring with peers (NewRouter), and fails if
// docs/api.md does not mention a route — so an endpoint cannot ship
// undocumented, and the doc page cannot silently rot when routes move.
func TestDocsCoverRegisteredRoutes(t *testing.T) {
	docs, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatalf("docs/api.md must exist and document every route: %v", err)
	}
	solo := New(Options{Workers: 1})
	rt, err := NewRouter(New(Options{Workers: 1}), "http://127.0.0.1:1", []string{"http://127.0.0.1:1"}, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string][]route{
		"NewHandler": newSolo(solo).routes(),
		"NewRouter":  rt.routes(),
	}
	seen := map[string]bool{}
	for ctor, table := range tables {
		for _, rr := range table {
			if seen[rr.pattern] {
				continue
			}
			seen[rr.pattern] = true
			_, path, ok := strings.Cut(rr.pattern, " ")
			if !ok {
				t.Errorf("%s: route pattern %q has no method", ctor, rr.pattern)
				continue
			}
			if !strings.Contains(string(docs), "`"+path+"`") {
				t.Errorf("%s (registered by %s) is not documented in docs/api.md", rr.pattern, ctor)
			}
		}
	}
	// The floor catches a table that lost its routes.
	if len(seen) < 12 {
		t.Fatalf("found only %d registered routes — route enumeration is broken", len(seen))
	}
}
