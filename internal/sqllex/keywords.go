package sqllex

import "strings"

// Keyword classes used by the parser and the statement-type detector.
var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "TOP": true,
	"DISTINCT": true, "ALL": true, "AS": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "FULL": true, "OUTER": true, "CROSS": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "IS": true, "NULL": true, "EXISTS": true,
	"UNION": true, "INTERSECT": true, "EXCEPT": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "CAST": true,
	"INTO": true, "VALUES": true, "INSERT": true, "UPDATE": true,
	"DELETE": true, "SET": true, "CREATE": true, "DROP": true, "ALTER": true,
	"TABLE": true, "VIEW": true, "INDEX": true, "EXECUTE": true, "EXEC": true,
	"DECLARE": true, "TRUNCATE": true, "COUNT": true, "LIMIT": true,
	"OFFSET": true, "WITH": true,
}

// IsKeyword reports whether tok (case-insensitive) is a SQL keyword.
func IsKeyword(tok string) bool {
	return sqlKeywords[strings.ToUpper(tok)]
}

// aggregateFunctions are the built-in aggregates recognized for the
// nested-aggregation structural property (Section 4.3.1, property 10).
var aggregateFunctions = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"STDEV": true, "STDEVP": true, "VAR": true, "VARP": true,
}

// IsAggregateFunction reports whether name is a SQL aggregate function.
func IsAggregateFunction(name string) bool {
	return aggregateFunctions[strings.ToUpper(name)]
}

// StatementType classifies the leading verb of a raw statement from
// its word tokens (Words). The workload analysis (Section 4.3.1)
// reports the breakdown of SELECT vs EXECUTE/CREATE/DROP/UPDATE/ALTER
// and combinations.
func StatementType(words []string) string {
	for _, t := range words {
		u := strings.ToUpper(t)
		switch u {
		case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP",
			"ALTER", "EXECUTE", "EXEC", "DECLARE", "TRUNCATE", "WITH":
			if u == "EXEC" {
				return "EXECUTE"
			}
			if u == "WITH" {
				return "SELECT"
			}
			return u
		case "--", "/*":
			continue
		}
		// First token is not a recognized verb: junk/natural language.
		return "OTHER"
	}
	return "EMPTY"
}
