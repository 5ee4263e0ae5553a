package sim

import "os"

// commit publishes a file with a bare rename: a second durable-file layer.
func commit(tmp, final string) error { return os.Rename(tmp, final) }
