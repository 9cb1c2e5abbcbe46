package workload

import "fmt"

// Group is one multiprogrammed workload from Table 4.
type Group struct {
	Name       string
	Benchmarks []string
}

// Groups2 are the fourteen two-application workloads of Table 4. Every
// group contains at least one highly memory-intensive program
// (MPKI > 5), as the paper's selection procedure requires.
var Groups2 = []Group{
	{"G2-1", []string{"soplex", "namd"}},
	{"G2-2", []string{"soplex", "milc"}},
	{"G2-3", []string{"gobmk", "h264ref"}},
	{"G2-4", []string{"lbm", "povray"}},
	{"G2-5", []string{"gobmk", "perlbench"}},
	{"G2-6", []string{"lbm", "bzip2"}},
	{"G2-7", []string{"lbm", "astar"}},
	{"G2-8", []string{"lbm", "soplex"}},
	{"G2-9", []string{"soplex", "dealII"}},
	{"G2-10", []string{"sjeng", "calculix"}},
	{"G2-11", []string{"sjeng", "xalan"}},
	{"G2-12", []string{"soplex", "gcc"}},
	{"G2-13", []string{"sjeng", "povray"}},
	{"G2-14", []string{"gobmk", "omnetpp"}},
}

// Groups4 are the fourteen four-application workloads of Table 4, each
// with at least one High and one Medium MPKI program.
var Groups4 = []Group{
	{"G4-1", []string{"gobmk", "gcc", "perlbench", "xalan"}},
	{"G4-2", []string{"sjeng", "lbm", "calculix", "omnetpp"}},
	{"G4-3", []string{"dealII", "sjeng", "soplex", "namd"}},
	{"G4-4", []string{"soplex", "sjeng", "h264ref", "astar"}},
	{"G4-5", []string{"lbm", "libquantum", "gromacs", "mcf"}},
	{"G4-6", []string{"gobmk", "libquantum", "namd", "perlbench"}},
	{"G4-7", []string{"lbm", "sjeng", "povray", "omnetpp"}},
	{"G4-8", []string{"lbm", "soplex", "h264ref", "dealII"}},
	{"G4-9", []string{"lbm", "xalan", "milc", "soplex"}},
	{"G4-10", []string{"sjeng", "povray", "milc", "gobmk"}},
	{"G4-11", []string{"gobmk", "libquantum", "h264ref", "gromacs"}},
	{"G4-12", []string{"soplex", "astar", "omnetpp", "milc"}},
	{"G4-13", []string{"soplex", "gcc", "libquantum", "xalan"}},
	{"G4-14", []string{"soplex", "bzip2", "astar", "milc"}},
}

// Groups8 are eight-application workloads for the many-core scaling
// sweep, built from the Table 3 benchmarks by the paper's selection
// procedure (every group carries at least one High and one Medium MPKI
// program, with Low programs filling the remainder).
var Groups8 = []Group{
	{"G8-1", []string{"soplex", "lbm", "gcc", "astar", "dealII", "namd", "povray", "xalan"}},
	{"G8-2", []string{"gobmk", "sjeng", "mcf", "libquantum", "bzip2", "h264ref", "omnetpp", "gromacs"}},
	{"G8-3", []string{"lbm", "soplex", "sjeng", "calculix", "perlbench", "milc", "dealII", "astar"}},
	{"G8-4", []string{"gobmk", "lbm", "gcc", "mcf", "xalan", "namd", "h264ref", "povray"}},
	{"G8-5", []string{"soplex", "sjeng", "libquantum", "bzip2", "astar", "omnetpp", "perlbench", "gromacs"}},
	{"G8-6", []string{"gobmk", "soplex", "lbm", "gcc", "calculix", "milc", "dealII", "xalan"}},
}

// Groups16 are sixteen-application workloads for the scaling sweep,
// each drawing 16 of the 19 Table 3 benchmarks across all three MPKI
// classes.
var Groups16 = []Group{
	{"G16-1", []string{
		"gobmk", "lbm", "sjeng", "soplex", "astar", "bzip2", "calculix", "gcc",
		"libquantum", "mcf", "dealII", "gromacs", "h264ref", "milc", "namd", "xalan"}},
	{"G16-2", []string{
		"gobmk", "lbm", "sjeng", "soplex", "astar", "bzip2", "calculix", "gcc",
		"libquantum", "mcf", "h264ref", "milc", "omnetpp", "perlbench", "povray", "xalan"}},
	{"G16-3", []string{
		"lbm", "soplex", "gobmk", "sjeng", "mcf", "gcc", "astar", "libquantum",
		"milc", "xalan", "povray", "perlbench", "omnetpp", "h264ref", "dealII", "calculix"}},
	{"G16-4", []string{
		"gobmk", "soplex", "lbm", "sjeng", "bzip2", "calculix", "gcc", "mcf",
		"libquantum", "astar", "namd", "gromacs", "dealII", "omnetpp", "perlbench", "milc"}},
}

// FindGroup looks a group up by name in all the group tables.
func FindGroup(name string) (Group, error) {
	for _, table := range [][]Group{Groups2, Groups4, Groups8, Groups16} {
		for _, g := range table {
			if g.Name == name {
				return g, nil
			}
		}
	}
	return Group{}, fmt.Errorf("workload: unknown group %q", name)
}

// Validate checks a group's benchmarks all exist.
func (g Group) Validate() error {
	if len(g.Benchmarks) == 0 {
		return fmt.Errorf("workload: group %q is empty", g.Name)
	}
	for _, n := range g.Benchmarks {
		if _, err := Get(n); err != nil {
			return fmt.Errorf("workload: group %q: %w", g.Name, err)
		}
	}
	return nil
}
