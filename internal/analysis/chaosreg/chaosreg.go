// Package chaosreg keeps the enum-indexed name registries and the
// fault-injection call sites honest.
//
// Each registry (chaos pointNames, core ringEventNames, telemetry kindNames
// and batchKindNames) is a package-level [Sentinel]string literal indexed
// by a defined integer enum. Docs, test output, exporters and the chaos
// schedule sweep key on those names, so the analyzer enforces:
//
//   - completeness, on every such table: each constant of the enum type
//     below the sentinel must appear as a key with a non-empty name, so a
//     new enum member without a name does not compile cleanly;
//   - hygiene, on the table annotated //lcrq:points: it must be such a
//     literal, and its entries must be mutually distinct and kebab-case
//     (lowercase words joined by single hyphens — the shape every point
//     name and test matcher assumes);
//   - registered call sites: every Point-typed argument at a call into the
//     chaos package must be either a named constant strictly below the
//     sentinel or a non-constant expression (the schedule sweep's loop
//     variable); a numeric literal, an ad-hoc Point(n) conversion, or the
//     sentinel itself is an unregistered point — Fire would consult a
//     probability slot no test ever sets, or walk off the table entirely.
//
// An empty literal is a zero-value array (a probability table, a
// histogram), not a name registry, and draws no completeness diagnostics.
// The call-site rule is keyed to the chaos package import path, where the
// contract lives.
package chaosreg

import (
	"go/ast"
	"go/constant"
	"go/types"
	"maps"
	"slices"

	"lcrq/internal/analysis/lintutil"
	"lcrq/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "chaosreg",
	Doc:  "check that enum-indexed name registries are complete, the chaos.Point registry is well-formed, and injection call sites use registered points",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				_, points := lintutil.VarDirective(gd, vs, "points")
				checkRegistry(pass, vs, points)
			}
		}
	}
	checkCallSites(pass)
	return nil, nil
}

// checkRegistry checks the enum-indexed name tables of one var spec:
// completeness on every table, and, when points is set (the //lcrq:points
// annotation), the table's shape, kebab-case and uniqueness.
func checkRegistry(pass *analysis.Pass, vs *ast.ValueSpec, points bool) {
	for i, name := range vs.Names {
		var lit *ast.CompositeLit
		if i < len(vs.Values) {
			lit, _ = vs.Values[i].(*ast.CompositeLit)
		}
		if lit == nil {
			if points {
				pass.Reportf(name.Pos(), "//lcrq:points on %s: registry must be initialized with an enum-indexed array literal", name.Name)
			}
			continue
		}
		enum, sentinel, ok := enumArrayBound(pass, lit)
		if !ok {
			if points {
				pass.Reportf(name.Pos(), "//lcrq:points on %s: want [Sentinel]string with a defined integer-typed constant bound", name.Name)
			}
			continue
		}
		if len(lit.Elts) == 0 {
			continue // a zero-value array, not a name registry
		}

		constName := enumConstNames(enum, sentinel)
		present := make(map[int64]bool)
		seen := make(map[string]string) // name -> first enum member using it
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
			member := constName[idx]
			if member == "" {
				member = name.Name + "[" + enum.Obj().Name() + "(" + itoa(idx) + ")]"
			}
			vtv, ok := pass.TypesInfo.Types[val]
			if !ok || vtv.Value == nil || vtv.Value.Kind() != constant.String {
				continue
			}
			s := constant.StringVal(vtv.Value)
			if s == "" {
				pass.Reportf(val.Pos(), "registry %s entry for %s is empty", name.Name, member)
				continue
			}
			if !points {
				continue
			}
			if !isKebab(s) {
				pass.Reportf(val.Pos(),
					"points registry %s entry %q for %s is not kebab-case; point names are lowercase words joined by single hyphens",
					name.Name, s, member)
			}
			if prev, dup := seen[s]; dup {
				pass.Reportf(val.Pos(),
					"points registry %s entry %q for %s duplicates %s; every injection point needs a distinct name",
					name.Name, s, member, prev)
			} else {
				seen[s] = member
			}
		}

		// Every constant of the enum type below the sentinel must appear.
		for _, v := range slices.Sorted(maps.Keys(constName)) {
			if !present[v] {
				pass.Reportf(lit.Pos(),
					"registry %s has no entry for %s (= %d); every %s below the array bound must be named",
					name.Name, constName[v], v, enum.Obj().Name())
			}
		}
	}
}

// checkCallSites enforces the call-site half: Point-typed constant
// arguments to chaos-package functions must be named constants below the
// sentinel.
func checkCallSites(pass *analysis.Pass) {
	// Find the chaos package's Point enum: the current package if this is
	// the chaos package itself, otherwise via imports.
	var chaosPkg *types.Package
	if pass.Pkg.Path() == lintutil.ChaosPkgPath {
		chaosPkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == lintutil.ChaosPkgPath {
				chaosPkg = imp
				break
			}
		}
	}
	if chaosPkg == nil {
		return
	}
	tn, ok := chaosPkg.Scope().Lookup("Point").(*types.TypeName)
	if !ok {
		return
	}
	pointType := tn.Type()
	sentinel := maxEnumVal(pointType, chaosPkg)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != lintutil.ChaosPkgPath {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			for ai, arg := range call.Args {
				pi := ai
				if pi >= sig.Params().Len() {
					pi = sig.Params().Len() - 1 // variadic tail
				}
				if pi < 0 || !types.Identical(sig.Params().At(pi).Type(), pointType) {
					continue
				}
				checkPointArg(pass, fn, arg, sentinel)
			}
			return true
		})
	}
}

func checkPointArg(pass *analysis.Pass, fn *types.Func, arg ast.Expr, sentinel int64) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil {
		return // dynamic point: the schedule sweep's loop variable
	}
	if obj := lintutil.ExprObject(pass.TypesInfo, arg); obj != nil {
		if _, isConst := obj.(*types.Const); isConst {
			v, _ := constant.Int64Val(tv.Value)
			if sentinel >= 0 && v >= sentinel {
				pass.Reportf(arg.Pos(),
					"%s called with %s, the registry sentinel; it counts the points and is not itself an injection point",
					fn.Name(), obj.Name())
			}
			return
		}
	}
	pass.Reportf(arg.Pos(),
		"%s called with an unregistered point value; injection sites must name a chaos.Point constant so the schedule sweep covers them",
		fn.Name())
}

// enumArrayBound matches lit against [Sentinel]string where Sentinel is a
// constant of a defined integer type, returning that type and the bound.
func enumArrayBound(pass *analysis.Pass, lit *ast.CompositeLit) (*types.Named, int64, bool) {
	at, ok := lit.Type.(*ast.ArrayType)
	if !ok || at.Len == nil {
		return nil, 0, false
	}
	lenTV, ok := pass.TypesInfo.Types[at.Len]
	if !ok || lenTV.Value == nil || lenTV.Value.Kind() != constant.Int {
		return nil, 0, false
	}
	enum, ok := types.Unalias(lenTV.Type).(*types.Named)
	if !ok {
		return nil, 0, false
	}
	basic, ok := enum.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil, 0, false
	}
	n, ok := constant.Int64Val(lenTV.Value)
	return enum, n, ok
}

// enumConstNames maps enum values below the sentinel to their constant
// names.
func enumConstNames(enum *types.Named, sentinel int64) map[int64]string {
	names := make(map[int64]string)
	scope := enum.Obj().Pkg().Scope()
	for _, cname := range scope.Names() {
		c, ok := scope.Lookup(cname).(*types.Const)
		if !ok || !types.Identical(c.Type(), enum) {
			continue
		}
		if v, ok := constant.Int64Val(c.Val()); ok && v >= 0 && v < sentinel {
			names[v] = cname
		}
	}
	return names
}

// maxEnumVal returns the largest constant value of type t declared in pkg —
// by the iota convention, the registry sentinel. Returns -1 if none.
func maxEnumVal(t types.Type, pkg *types.Package) int64 {
	max := int64(-1)
	scope := pkg.Scope()
	for _, cname := range scope.Names() {
		c, ok := scope.Lookup(cname).(*types.Const)
		if !ok || !types.Identical(c.Type(), t) {
			continue
		}
		if v, ok := constant.Int64Val(c.Val()); ok && v > max {
			max = v
		}
	}
	return max
}

// calleeFunc resolves the called function for plain and package-qualified
// calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func isKebab(s string) bool {
	prevHyphen := true // no leading hyphen
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			prevHyphen = false
		case c == '-':
			if prevHyphen {
				return false // leading or doubled hyphen
			}
			prevHyphen = true
		default:
			return false
		}
	}
	return !prevHyphen || s == "" // no trailing hyphen; empty handled elsewhere
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
