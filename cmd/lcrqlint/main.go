// Command lcrqlint runs the repository's concurrency-invariant analyzers
// (internal/analysis): the v1 per-word checks — align128, atomiconly,
// padcheck, hotpath — and the v2 protocol checks — seqlockcheck,
// singlewriter, publication, chaosreg.
//
// It supports two modes:
//
//	lcrqlint ./...            # standalone: load packages from source
//	go vet -vettool=$(go env GOPATH)/bin/lcrqlint ./...
//
// Standalone mode loads and type-checks packages itself (see
// internal/lint/load) and analyzes non-test compilation units. Under go
// vet the tool speaks the unitchecker protocol — -V=full and -flags for
// the build system, then one JSON .cfg file per compilation unit — so test
// files are covered too and results participate in go vet's build cache.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	suite "lcrq/internal/analysis"
	"lcrq/internal/lint/analysis"
	"lcrq/internal/lint/load"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lcrqlint: ")
	analyzers := suite.All()
	if err := analysis.Validate(analyzers); err != nil {
		log.Fatal(err)
	}

	// The two flags of the go vet tool protocol, handled before normal
	// flag parsing exactly as x/tools' unitchecker does.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			// No analyzer in the suite defines flags.
			fmt.Println("[]")
			return
		}
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage:
  lcrqlint [packages]      # standalone analysis, e.g. lcrqlint ./...
  go vet -vettool=$(which lcrqlint) [packages]
`)
		os.Exit(2)
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
	}

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVettool(args[0], analyzers)
		return
	}
	runStandalone(args, analyzers)
}

// printVersion responds to -V=full with the executable's content hash, the
// format cmd/go's build-cache tool-ID probe expects from a devel tool.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel buildID=%x\n", filepath.Base(os.Args[0]), h.Sum(nil))
}

// runStandalone loads packages from source and analyzes them.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer) {
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	exit := 0
	for _, pkg := range pkgs {
		diags, err := load.RunAnalyzers(pkg, analyzers)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			exit = 1
		}
	}
	os.Exit(exit)
}

// vetConfig is the compilation-unit description 'go vet' writes for its
// -vettool (the unitchecker protocol's Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVettool analyzes the single compilation unit described by cfgFile.
func runVettool(cfgFile string, analyzers []*analysis.Analyzer) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	// The go command expects the facts file to exist even though this
	// suite exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return // the compiler will report it
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})

	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := load.NewInfo()
	tpkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		log.Fatal(err)
	}

	pkg := &load.Package{
		ImportPath: cfg.ImportPath,
		Dir:        cfg.Dir,
		GoFiles:    cfg.GoFiles,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
		TypesSizes: tc.Sizes,
	}
	diags, err := load.RunAnalyzers(pkg, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	exit := 0
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
		exit = 1
	}
	os.Exit(exit)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
