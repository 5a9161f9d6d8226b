package dcsprint

// Facade-surface tests: the parity test pins that every exported entry point
// of the internal sim/workload/testbed/campaign packages stays reachable
// through this package, and the golden test pins the facade's exported
// symbol list so API changes show up in review as a one-line diff.

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api_symbols.golden from the current facade")

// exportedSymbols parses the non-test Go files of one directory and returns
// kind-prefixed exported top-level symbols ("func Run", "type Scenario", ...).
func exportedSymbols(t *testing.T, dir string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	out := make(map[string]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						out[d.Name.Name] = "func"
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								out[s.Name.Name] = "type"
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									out[n.Name] = strings.ToLower(d.Tok.String())
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// facadeFor maps every exported symbol of the four internal surface packages
// to the facade symbol that re-exports it. Symbols listed in internalOnly
// are deliberately not part of the facade (tuning constants, codec versions,
// helpers the facade supersedes).
var facadeFor = map[string]map[string]string{
	"internal/sim": {
		"ApplyDelta":        "ApplyDelta",
		"CappingResult":     "CappingResult",
		"DeltaVersion":      "DeltaVersion",
		"Engine":            "Engine",
		"ErrDeltaBase":      "ErrDeltaBase",
		"ErrFinished":       "ErrEngineFinished",
		"ErrSnapshotFaults": "ErrSnapshotFaults",
		"Instrument":        "Instrument",
		"New":               "NewEngine",
		"NewInstrument":     "NewInstrument",
		"PlantRecorder":     "PlantRecorder",
		"PlantSample":       "PlantSample",
		"Restore":           "RestoreEngine",
		"Result":            "Result",
		"Run":               "Run",
		"RunCapping":        "RunCapping",
		"Scenario":          "Scenario",
		"Telemetry":         "Telemetry",
		"TickDecision":      "TickDecision",
		"WriteRunCSV":       "WriteRunCSV",
	},
	"internal/workload": {
		"Analyze":              "AnalyzeTrace",
		"BurstStats":           "BurstStats",
		"BurstinessIndex":      "BurstinessIndex",
		"Episode":              "Episode",
		"Episodes":             "Episodes",
		"Estimate":             "Estimate",
		"SelfSimilar":          "SelfSimilarTrace",
		"SelfSimilarConfig":    "SelfSimilarConfig",
		"SupplyDip":            "SupplyDip",
		"SyntheticMS":          "MSTrace",
		"SyntheticMSDay":       "DayTrace",
		"SyntheticYahoo":       "YahooTrace",
		"SyntheticYahooServer": "YahooServerTrace",
	},
	"internal/testbed": {
		"Config":        "TestbedConfig",
		"Default":       "DefaultTestbed",
		"Policy":        "TestbedPolicy",
		"PolicyOurs":    "TestbedOurs",
		"PolicyCBFirst": "TestbedCBFirst",
		"PolicyCBOnly":  "TestbedCBOnly",
		"Result":        "TestbedResult",
		"Run":           "RunTestbed",
		"Sweep":         "SweepTestbed",
		"SweepPoint":    "TestbedSweepPoint",
	},
	"internal/campaign": {
		"BuildBoundTable": "BuildBoundTable",
		"Options":         "CampaignOptions",
		"OracleResult":    "OracleResult",
		"OracleSearch":    "OracleSearch",
		"Report":          "CampaignResult",
		"Sweep":           "Sweep",
		"TraceMaker":      "TraceMaker",
	},
}

var internalOnly = map[string]map[string]bool{
	"internal/sim": {
		"Batch":             true, // lockstep slot table, kept for the benchmark ladder
		"BatchOptions":      true, // sizes a Batch
		"DefaultServers":    true, // scenario default, set via Scenario.Servers
		"DefaultStreamStep": true, // streaming default, set via Scenario
		"NewBatch":          true, // builds a Batch
		"Sample":            true, // a Batch slot's StepAll input
		"SnapshotVersion":   true, // snapshot codec detail
	},
	"internal/workload": {
		"MSBurstDuration": true, // trace-generator calibration constant
		"Step":            true, // trace-generator resolution
	},
	"internal/testbed":  {},
	"internal/campaign": {},
}

func TestFacadeParity(t *testing.T) {
	facade := exportedSymbols(t, ".")
	for dir, mapping := range facadeFor {
		internal := exportedSymbols(t, filepath.FromSlash(dir))
		if len(internal) == 0 {
			t.Fatalf("%s: no exported symbols parsed", dir)
		}
		for sym := range internal {
			if internalOnly[dir][sym] {
				if _, mapped := mapping[sym]; mapped {
					t.Errorf("%s.%s is both mapped and marked internal-only", dir, sym)
				}
				continue
			}
			want, ok := mapping[sym]
			if !ok {
				t.Errorf("%s.%s has no facade mapping: export it from the facade or mark it internal-only", dir, sym)
				continue
			}
			if _, ok := facade[want]; !ok {
				t.Errorf("%s.%s maps to facade symbol %q, which does not exist", dir, sym, want)
			}
		}
		// Mappings must not go stale when internal symbols are renamed.
		for sym := range mapping {
			if _, ok := internal[sym]; !ok {
				t.Errorf("facade mapping references %s.%s, which no longer exists", dir, sym)
			}
		}
	}
}

func TestFacadeGoldenSymbols(t *testing.T) {
	facade := exportedSymbols(t, ".")
	lines := make([]string, 0, len(facade))
	for name, kind := range facade {
		lines = append(lines, fmt.Sprintf("%s %s", kind, name))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "api_symbols.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -run TestFacadeGoldenSymbols -update` to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("facade exported symbols changed; review the diff and run `go test -run TestFacadeGoldenSymbols -update`\n--- want\n%s\n--- got\n%s", want, got)
	}
}
