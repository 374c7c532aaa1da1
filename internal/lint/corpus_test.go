package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// corpusCases pins each analyzer to its golden corpus: every `// want`
// regex must match a finding on its line, every finding must be wanted,
// and every unannotated idiom (directive suppressions, sorted-after-
// iteration map use, keyed writes, ...) must stay quiet.
var corpusCases = []struct {
	dir        string
	importPath string
	analyzer   *lint.Analyzer
}{
	{"determinism", "repro/internal/core", lint.Determinism},
	{"codecsafety", "repro/internal/remote", lint.CodecSafety},
	{"kerneldiscipline", "repro/internal/scratch", lint.KernelDiscipline},
	{"ctxflow", "repro/internal/svc", lint.CtxFlow},
}

func TestCorpus(t *testing.T) {
	for _, tc := range corpusCases {
		t.Run(tc.dir, func(t *testing.T) {
			files := corpusFiles(t, tc.dir)
			pkg, err := lint.LoadFiles(tc.importPath, files)
			if err != nil {
				t.Fatalf("loading corpus: %v", err)
			}
			diags := lint.Run(tc.analyzer, pkg)
			checkWants(t, pkg, files, diags)
		})
	}
}

// TestKernelExempt proves the kernel corpus — violations and all — is
// legal inside internal/mat and internal/quant, where the canonical
// float32 reduction order and PQ's table-lookup sums live.
func TestKernelExempt(t *testing.T) {
	for _, path := range []string{"repro/internal/mat", "repro/internal/quant"} {
		files := corpusFiles(t, "kerneldiscipline")
		pkg, err := lint.LoadFiles(path, files)
		if err != nil {
			t.Fatalf("loading corpus: %v", err)
		}
		// The corpus's kernel-ok directives suppress nothing under the
		// exemption, so expect exactly the stale-directive hygiene
		// findings — and no reduction findings.
		for _, d := range lint.Run(lint.KernelDiscipline, pkg) {
			if !strings.Contains(d.Message, "stale") {
				t.Errorf("unexpected finding under %s: %s: %s", path, pkg.Fset.Position(d.Pos), d.Message)
			}
		}
	}
}

func corpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files for %s: %v", dir, err)
	}
	sort.Strings(files)
	return files
}

// wantRe pulls the `// want` annotation off a corpus line; each backtick-
// quoted chunk after it is one expected-finding regex.
var wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)$")

var wantChunkRe = regexp.MustCompile("`([^`]*)`")

type wantKey struct {
	file string
	line int
}

func parseWants(t *testing.T, files []string) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, fn := range files {
		f, err := os.Open(fn)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, chunk := range wantChunkRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(chunk[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", fn, line, chunk[1], err)
				}
				wants[wantKey{fn, line}] = append(wants[wantKey{fn, line}], re)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// checkWants matches findings against annotations 1:1 per line.
func checkWants(t *testing.T, pkg *lint.Package, files []string, diags []lint.Diagnostic) {
	t.Helper()
	wants := parseWants(t, files)
	for _, d := range diags {
		posn := pkg.Fset.Position(d.Pos)
		key := wantKey{posn.Filename, posn.Line}
		matched := -1
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding %s: [%s] %s", posn, d.Analyzer, d.Message)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, re)
		}
	}
}
