// Command stlint is the simulator's static-analysis gate: a multichecker
// over internal/lint's analyzer suite (barepanic, fsseam, determinism,
// hotalloc), speaking the `go vet -vettool` protocol.
//
// Usage:
//
//	go build -o /tmp/stlint ./cmd/stlint
//	go vet -vettool=/tmp/stlint ./...
//
// See internal/lint's package documentation for what each analyzer
// enforces and the annotation vocabulary (`// invariant:`, `// fail-fast:`,
// `//st:hotpath`, `//st:wallclock`, `//st:unordered`, `//st:alloc-ok`,
// `//st:rawfs`).
package main

import "selthrottle/internal/lint"

func main() {
	lint.Main(lint.All()...)
}
