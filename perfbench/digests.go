package main

// pinKey names one workload at one seed.
type pinKey struct {
	workload string
	seed     int64
}

// pinned holds the sha256 digests of summary.csv, results.json and
// power.csv for each workload at the default seed, taken from a reference
// run at one worker and one shard whose rows equal those of collapse off
// (see referenceDigests). Regenerate a line with
//
//	bash perfbench/run.sh --workload <name> --seed 1 --reference
var pinned = map[pinKey][3]string{
	{"office-sweep", 1}:    {"3cb31929dc3d91d0bae9fbb0d8cd25b829cfcff9ff0f3bad41ab2197e4f3dec8", "8d9c1ced414f921c61f5797a1d8243ba724236e6bcc4a801992206af0bba678d", "3f85421a3c49471b62851db670ac17d3c54704a915fc306d0a64b18c5838b624"},
	{"metro-shuffled", 1}:  {"9f2a5f40c67ea16ef0749514ee5acce0a7c0968f929287a1501e0a6b82a001d0", "bd0e478ab3fd4f08cfdea1d103b81e9a82fbe2ea7cfd1ea3bbc3957c3cab5f29", "e48d3515ae726713feaa7c2c8b5ba075f0d660c1f035feb19ec67d57f6da63fa"},
	{"metro-symmetric", 1}: {"62a64085b6c2abad5431d0bde0dcb71e6c82ad77655d4fa9420c95a79061fdb6", "0b7d0a44aacc4980b491ca6d912c5109d430d4c2a32e139d9435bf686edc8421", "d66fd16b98f83d413dcdcc03b149a93edcee9f721d286f657c6b388176aee4d5"},
}

// pinnedDigests returns the pinned digests of workload at seed by
// artifact name, or nil when none are pinned.
func pinnedDigests(workload string, seed int64) map[string]string {
	d, ok := pinned[pinKey{workload, seed}]
	if !ok {
		return nil
	}
	return map[string]string{"summary.csv": d[0], "results.json": d[1], "power.csv": d[2]}
}
