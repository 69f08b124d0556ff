// Command cfdclean applies CFD rules to a CSV file, reports violations, and
// optionally suggests and applies repairs — the data-cleaning workflow that
// motivates the paper.
//
// Rules either come from a rule file — the text format written by cfddiscover
// (one CFD per line in the paper's notation) or the rules.Set JSON served by
// cfdserve's GET /rules, sniffed automatically — or are discovered on a
// trusted sample given with -sample.
//
// Usage:
//
//	cfdclean -data dirty.csv -rules rules.txt
//	cfdclean -data dirty.csv -sample clean.csv -support 10 -repair repaired.csv
//	cfdclean -data dirty.csv -rules rules.txt -json > report.json
//
// Exit status composes in pipelines and CI: 0 when the data is clean, 1 when
// violations were found, 2 on errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/cfd"
	"repro/cleaning"
	"repro/dataset"
	"repro/discovery"
	"repro/rules"
)

// jsonViolation and jsonRepair are the machine-readable forms of the report.
type jsonViolation struct {
	Rule   string `json:"rule"`
	Tuples []int  `json:"tuples"`
}

type jsonRepair struct {
	Tuple     int    `json:"tuple"`
	Attribute string `json:"attribute"`
	Current   string `json:"current"`
	Suggested string `json:"suggested"`
	Rule      string `json:"rule"`
}

type jsonReport struct {
	Tuples       int             `json:"tuples"`
	RulesChecked int             `json:"rules_checked"`
	Clean        bool            `json:"clean"`
	Violations   []jsonViolation `json:"violations"`
	DirtyTuples  []int           `json:"dirty_tuples"`
	Repairs      []jsonRepair    `json:"repairs"`
}

func main() {
	var (
		data      = flag.String("data", "", "CSV file to check (header row required)")
		rulesPath = flag.String("rules", "", "rule file: cfddiscover -o text or rules.Set JSON")
		sample    = flag.String("sample", "", "trusted CSV sample to discover rules from (alternative to -rules)")
		support   = flag.Int("support", 10, "support threshold used when discovering rules from -sample")
		maxLHS    = flag.Int("maxlhs", 3, "LHS bound used when discovering rules from -sample")
		repair    = flag.String("repair", "", "write a repaired copy of the data to this CSV file")
		verbose   = flag.Bool("v", false, "list every violated rule with its tuples")
		jsonOut   = flag.Bool("json", false, "write the report as JSON to stdout instead of text")
	)
	flag.Parse()

	if *data == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	rel, err := dataset.LoadCSVFile(*data)
	if err != nil {
		fatal(err)
	}
	ruleSet, err := loadRules(*rulesPath, *sample, *support, *maxLHS)
	if err != nil {
		fatal(err)
	}

	// One engine over the data serves the report and the repairs alike.
	eng, err := cleaning.Load(rel, ruleSet)
	if err != nil {
		fatal(err)
	}
	report, repairs := eng.Report(), eng.Repairs()
	repairedPath := ""
	if !report.Clean() && *repair != "" {
		if err := dataset.SaveCSVFile(*repair, cleaning.ApplyRepairs(rel, repairs)); err != nil {
			fatal(err)
		}
		repairedPath = *repair
	}

	if *jsonOut {
		emitJSON(rel.Size(), report, repairs)
	} else {
		emitText(rel, ruleSet, report, repairs, repairedPath, *verbose)
	}
	if !report.Clean() {
		os.Exit(1)
	}
}

func emitJSON(tuples int, report *cleaning.Report, repairs []cleaning.Repair) {
	out := jsonReport{
		Tuples:       tuples,
		RulesChecked: report.RulesChecked,
		Clean:        report.Clean(),
		Violations:   []jsonViolation{},
		DirtyTuples:  report.DirtyTuples,
		Repairs:      []jsonRepair{},
	}
	for _, v := range report.Violations {
		out.Violations = append(out.Violations, jsonViolation{Rule: v.Rule.String(), Tuples: v.Tuples})
	}
	for _, rp := range repairs {
		out.Repairs = append(out.Repairs, jsonRepair{
			Tuple: rp.Tuple, Attribute: rp.Attribute,
			Current: rp.Current, Suggested: rp.Suggested, Rule: rp.Rule.String(),
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func emitText(rel *cfd.Relation, ruleSet *rules.Set, report *cleaning.Report, repairs []cleaning.Repair, repairPath string, verbose bool) {
	fmt.Printf("checking %d tuples against %d rules\n", rel.Size(), ruleSet.Len())
	if report.Clean() {
		fmt.Println("no violations found")
		return
	}
	fmt.Printf("%d rules violated, %d tuples flagged dirty\n", len(report.Violations), len(report.DirtyTuples))
	if verbose {
		for _, v := range report.Violations {
			fmt.Printf("  %s  -> tuples %v\n", v.Rule, v.Tuples)
		}
	}
	fmt.Printf("%d repairs suggested\n", len(repairs))
	if verbose {
		for _, rp := range repairs {
			fmt.Printf("  tuple %d: %s %q -> %q (rule %s)\n", rp.Tuple, rp.Attribute, rp.Current, rp.Suggested, rp.Rule)
		}
	}
	if repairPath != "" {
		fmt.Printf("wrote repaired data to %s\n", repairPath)
	}
}

func loadRules(rulesPath, samplePath string, support, maxLHS int) (*rules.Set, error) {
	switch {
	case rulesPath != "":
		// Both rule-file formats are accepted; rules.Load sniffs them.
		return rules.Load(rulesPath)
	case samplePath != "":
		sampleRel, err := dataset.LoadCSVFile(samplePath)
		if err != nil {
			return nil, err
		}
		eng := discovery.NewEngine(discovery.AlgFastCFD, sampleRel,
			discovery.WithSupport(support), discovery.WithMaxLHS(maxLHS))
		return eng.Run(context.Background())
	default:
		return nil, fmt.Errorf("either -rules or -sample is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfdclean:", err)
	os.Exit(2)
}
