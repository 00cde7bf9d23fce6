package conf

// A test file's literal does not count.
var _ = Config{TestOnly: 1}
