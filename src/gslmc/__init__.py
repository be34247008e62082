"""Model checker for strategy logic with graded quantifiers over concurrent games."""
