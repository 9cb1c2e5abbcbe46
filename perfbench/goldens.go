package main

// Output digests recorded from the simulator for seed 1 and the
// held-out seed 7. A simulation workload's digest is the SHA-256 of its
// sim.Results as encoding/json marshals them, and sweep's that of its
// sweepResults; the figure workloads' digest is the SHA-256 of what
//
//	go run ./cmd/figures -fig N -scale unit -seed S
//
// prints for N = 5, 6 and 7 in turn. Seeds without a golden are checked
// against the run's first output instead.
var (
	pairGoldens = map[uint64]string{
		1: "8f625c11869ebe8201ac69e5eaaab4a7d8e0f3b635bfb4268078db80de972941",
		7: "3c9dd54311d3082aa1148c6e3a40832fc04b79072e93bb1cd57b50c53bccfe5a",
	}
	cmp16Goldens = map[uint64]string{
		1: "83e341dff61b3f301257f6b3dcf7080a226c759a6ac81b541908c3ef26917b32",
		7: "abd967222ff740ffe70ae6f0c838618c765a1b5c67fa83bfb06552631e4733d4",
	}
	sweepGoldens = map[uint64]string{
		1: "0927f23e810610ca528538dae83d7147106d8a2a6996de4613019546a5128731",
		7: "7a3c277dae5b605713c0c2e25e0f51193839a05d67ca119f314465472c28b594",
	}
	figsGoldens = map[uint64]string{
		1: "56d8bbf2662eb7fff6d7932538aebcc93e5557bf7d469fc595c44d1d2cd42fc6",
		7: "ee521c776b50a46a7bc36d7a649315be0f6999a1873e3512b7501d317c96f0ab",
	}
)
