//go:build !race

package remote

import "time"

const dispatchOverheadBound = 2 * time.Second
