"""gretlite: a typed, attributed graph engine.

The package bundles a schema-conforming graph model, a query language
with comprehensions and path expressions, a transformation script
language with archetype/image traceability, text formats, and a CLI.
Each entry point is imported from its home module: `formats.load_schema`,
`load_graph` and `save_graph`; `query.parser.parse_query`;
`query.evaluator.evaluate`; `transform.parser.parse_script`;
`transform.engine.execute`; and `cli.main`, or `cli.run` as a process.
"""
