package layphbench

/** Just enough JSON output for the result line; no parser is needed. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c    => c.toString
    } + "\""

  /** A finite double with all its digits; NaN and infinities become null. */
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
