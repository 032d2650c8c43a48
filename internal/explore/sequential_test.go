package explore

// exploreSequential is the sequential reference explorer: a plain FIFO BFS
// over a string-keyed map, followed by the shared bottom-SCC analysis. The
// engine (ExploreContext) must return bit-identical Results and fail with
// ErrStateLimit at the same point; the differential tests compare the two.
func exploreSequential[S any](sys System[S], initial []S, opts Options) (*Result, error) {
	limit := opts.maxStates()

	// Phase 1: BFS to discover all reachable states and record the edge
	// lists over dense integer ids.
	ids := make(map[string]int)
	var states []S
	var edges [][]int
	var expanded []bool // dense: ids are assigned 0,1,2,...

	intern := func(s S) (int, error) {
		k := sys.Key(s)
		if id, ok := ids[k]; ok {
			return id, nil
		}
		if len(states) >= limit {
			return 0, errStateLimit(limit)
		}
		id := len(states)
		ids[k] = id
		states = append(states, s)
		edges = append(edges, nil)
		expanded = append(expanded, false)
		return id, nil
	}

	queue := make([]int, 0, len(initial))
	for _, s := range initial {
		id, err := intern(s)
		if err != nil {
			return nil, err
		}
		if len(edges[id]) == 0 { // not expanded yet (may repeat in initial)
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if expanded[id] {
			continue
		}
		expanded[id] = true
		for _, next := range sys.Successors(states[id]) {
			nid, err := intern(next)
			if err != nil {
				return nil, err
			}
			edges[id] = append(edges[id], nid)
			if !expanded[nid] {
				queue = append(queue, nid)
			}
		}
	}

	return analyse(sys, states, edges), nil
}
