// Package statsmirror checks that enum-indexed name registries are
// complete: for any package-level `var names = [Sentinel]string{...}` whose
// length is a constant of a defined integer type (chaos.Point/NumPoints,
// telemetry.Kind/NumKinds), every constant of that type below the sentinel
// must appear as a key with a non-empty name. Adding a chaos injection
// point without naming it once broke only a runtime test; now it does not
// compile cleanly.
package statsmirror

import (
	"go/ast"
	"go/constant"
	"go/types"

	"lcrq/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "statsmirror",
	Doc:  "check that enum-indexed name registries are complete",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if decl, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range decl.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						checkRegistry(pass, vs)
					}
				}
			}
		}
	}
	return nil, nil
}

// checkRegistry checks one enum-indexed name table.
func checkRegistry(pass *analysis.Pass, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		lit, ok := vs.Values[i].(*ast.CompositeLit)
		if !ok {
			continue
		}
		at, ok := lit.Type.(*ast.ArrayType)
		if !ok || at.Len == nil {
			continue
		}
		lenTV, ok := pass.TypesInfo.Types[at.Len]
		if !ok || lenTV.Value == nil || lenTV.Value.Kind() != constant.Int {
			continue
		}
		enum, ok := types.Unalias(lenTV.Type).(*types.Named)
		if !ok {
			continue // plain [16]string — not an enum registry
		}
		basic, ok := enum.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsInteger == 0 {
			continue
		}
		sentinel, ok := constant.Int64Val(lenTV.Value)
		if !ok || len(lit.Elts) == 0 {
			// An empty literal is a zero-value array (a probability table,
			// a histogram), not a name registry.
			continue
		}

		// Which indices does the literal name?
		present := make(map[int64]bool)
		empty := make(map[int64]ast.Node)
		next := int64(0)
		for _, elt := range lit.Elts {
			val := elt
			idx := next
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				ktv, ok := pass.TypesInfo.Types[kv.Key]
				if !ok || ktv.Value == nil {
					continue
				}
				if iv, ok := constant.Int64Val(ktv.Value); ok {
					idx = iv
				}
				val = kv.Value
			}
			next = idx + 1
			present[idx] = true
			if vtv, ok := pass.TypesInfo.Types[val]; ok && vtv.Value != nil &&
				vtv.Value.Kind() == constant.String && constant.StringVal(vtv.Value) == "" {
				empty[idx] = val
			}
		}

		// Every constant of the enum type below the sentinel must appear.
		scope := enum.Obj().Pkg().Scope()
		for _, cname := range scope.Names() {
			c, ok := scope.Lookup(cname).(*types.Const)
			if !ok || !types.Identical(c.Type(), enum) {
				continue
			}
			v, ok := constant.Int64Val(c.Val())
			if !ok || v < 0 || v >= sentinel {
				continue
			}
			if !present[v] {
				pass.Reportf(lit.Pos(),
					"registry %s has no entry for %s (= %d); every %s below the array bound must be named",
					name.Name, cname, v, enum.Obj().Name())
			} else if n, isEmpty := empty[v]; isEmpty {
				pass.Reportf(n.Pos(), "registry %s entry for %s is empty", name.Name, cname)
			}
		}
	}
}
