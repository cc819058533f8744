package lint

import (
	"go/ast"
	"go/types"
)

// Determinism guards the repository's headline reproducibility contract:
// `hpca03 -exp all` output is byte-identical across runs, machines, and
// worker shardings, and the result store's content addresses assume a run
// is a pure function of (Config, Profile). The analyzer forbids the three
// classic leaks in the packages that feed that output:
//
//   - wall-clock reads (time.Now, time.Since). grid.MonotonicClock, the
//     reader-local monotonic source of the fleet's circuit breakers, is the
//     one legitimate consumer; such a site carries `//st:wallclock` with a
//     justification (the annotation is accepted on the line, the line
//     above, or the enclosing declaration's doc comment).
//   - the global math/rand / math/rand/v2 generators, which are seeded from
//     runtime entropy and shared across goroutines. Explicitly seeded
//     generators (rand.New and the internal/xrand streams) remain legal.
//   - ranging over a map, whose iteration order is deliberately randomized
//     by the runtime. Loops whose body is provably order-free (pure
//     accumulation into commutative aggregates) may carry `//st:unordered`
//     with a justification; anything feeding output or hashing must sort.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and unordered map " +
		"iteration in the byte-identical-output packages",
	Run: runDeterminism,
}

var determinismScope = []string{
	"internal/pipe",
	"internal/prog",
	"internal/power",
	"internal/conf",
	"internal/sim",
	"internal/grid",
	"internal/fleet",
}

// randConstructors are the math/rand[/v2] functions that build explicitly
// seeded local generators rather than touching the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !pass.inScope(determinismScope) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			doc := declDoc(decl)
			wallclockByDoc := directiveIn(doc, "//st:wallclock")
			unorderedByDoc := directiveIn(doc, "//st:unordered")
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					path, name := pass.selectorPkg(n)
					switch path {
					case "time":
						if (name == "Now" || name == "Since") &&
							!wallclockByDoc && !pass.noteAt(n.Pos(), "st:wallclock") {
							pass.Reportf(n.Pos(),
								"wall-clock read time.%s in a byte-identical-output package; derive times from simulated cycles or annotate //st:wallclock with a justification", name)
						}
					case "math/rand", "math/rand/v2":
						if randConstructors[name] {
							return true
						}
						if obj, ok := pass.TypesInfo.Uses[n.Sel]; ok {
							if _, isFunc := obj.(*types.Func); isFunc {
								pass.Reportf(n.Pos(),
									"global math/rand generator (rand.%s) is runtime-seeded and nondeterministic; use an explicitly seeded internal/xrand stream", name)
							}
						}
					}
				case *ast.RangeStmt:
					t := pass.TypesInfo.TypeOf(n.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); isMap &&
						!unorderedByDoc && !pass.noteAt(n.Pos(), "st:unordered") {
						pass.Reportf(n.Pos(),
							"map iteration order is nondeterministic; sort the keys before ranging, or annotate //st:unordered with a justification if the loop is provably order-free")
					}
				}
				return true
			})
		}
	}
	return nil
}
