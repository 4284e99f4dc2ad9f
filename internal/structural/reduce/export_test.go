package reduce

// RuleNames exposes the rule list to the external tests (which must be
// external: they import verify, and verify imports this package).
var RuleNames = ruleNames[:]
