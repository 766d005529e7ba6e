package infbench

import java.sql.{Connection, DriverManager}
import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.duckdb.DuckDBConnection
import repro.core.{FDType, InFineResult}
import repro.fd.{AttrSet => AS, FD}
import repro.views._

/** DuckDB copy of one database's base tables, independent of Spark and of
  * the program's partition machinery. Tables are all-VARCHAR, as
  * `ViewEval.toSql` expects. Distinct counts are memoized per source, since
  * the inputs do not change within a run.
  */
final class DuckDb(tables: Map[String, DataFrame]) extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")
  exec("SET threads = 1")
  tables.foreach { case (name, df) =>
    val cols = df.columns
    exec(s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})")
    val app = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
    try df.collect().foreach { r =>
      app.beginRow()
      cols.indices.foreach(i => app.append(Option(r.get(i)).map(_.toString).orNull))
      app.endRow()
    } finally app.close()
  }

  private val cards = mutable.Map.empty[(String, AS.T), Long]
  private var nTemp = 0

  private def exec(sql: String): Unit = { val st = conn.createStatement; try st.execute(sql) finally st.close() }

  private def long(sql: String): Long = {
    val st = conn.createStatement
    try { val rs = st.executeQuery(sql); rs.next(); rs.getLong(1) } finally st.close()
  }

  /** Materialize `sql` (a parenthesized SELECT) as a temp table; its name. */
  def materialize(sql: String): String = {
    nTemp += 1
    val name = s"v$nTemp"
    exec(s"CREATE TEMP TABLE $name AS SELECT * FROM $sql t")
    name
  }

  def rows(source: String): Long = long(s"SELECT count(*) FROM $source t")

  /** Distinct value combinations over `attrs` (columns `a<idx>`), NULLs equal. */
  def card(source: String, attrs: AS.T): Long = cards.getOrElseUpdate((source, attrs),
    if (AS.isEmpty(attrs)) math.min(1L, rows(source))
    else long(s"SELECT count(*) FROM (SELECT DISTINCT ${AS.toSeq(attrs).map(i => s"a$i").mkString(", ")} FROM $source t) d"))

  def holds(source: String, d: FD): Boolean = card(source, d.lhs) == card(source, d.attrs)

  def close(): Unit = conn.close()
}

/** The correctness gate applied to every timed pass. Each check returns the
  * problems it found; empty means the output passed.
  */
object Gate {

  /** Paper Theorems 5–6: the three pipelines report the same minimal FDs. */
  def agree(schema: ViewSchema, named: Seq[(String, Set[FD])]): Seq[String] = {
    val (refName, ref) = named.head
    named.tail.collect { case (n, s) if s != ref =>
      s"$n vs $refName: only $n ${(s -- ref).map(schema.renderFd).take(3)}, " +
        s"only $refName ${(ref -- s).map(schema.renderFd).take(3)}"
    }
  }

  /** Every FD holds on DuckDB's copy of the view, and dropping any one LHS
    * attribute breaks it.
    */
  def soundAndMinimal(schema: ViewSchema, db: DuckDb, view: String, fds: Set[FD]): Seq[String] =
    fds.toSeq.flatMap { d =>
      if (!db.holds(view, d)) Seq(s"${schema.renderFd(d)} does not hold on the view")
      else AS.toSeq(d.lhs).collect {
        case x if db.holds(view, FD(AS.remove(d.lhs, x), d.rhs)) =>
          s"${schema.renderFd(d)} is not minimal: ${schema.prettyName(x)} is redundant"
      }
    }

  private def attrsOf(schema: ViewSchema, spec: ViewSpec): AS.T =
    spec.rels.foldLeft(AS.empty)((acc, r) => AS.union(acc, schema.attrsOf(r.alias)))

  /** Definition 8 properties of InFine's provenance triples. */
  def provenance(res: InFineResult, db: DuckDb, eval: ViewEval): Seq[String] = {
    val schema = res.schema
    val dupes = res.triples.groupBy(_.fd).collect {
      case (d, ts) if ts.size != 1 => s"${schema.renderFd(d)} has ${ts.size} triples"
    }
    val total = res.countByType.values.sum
    val sum = if (total == res.triples.size) Nil
      else Seq(s"per-type counts sum to $total, not ${res.triples.size}")
    val perTriple = res.triples.toSeq.flatMap { t =>
      val fd = schema.renderFd(t.fd)
      (t.fdType, t.subquery) match {
        case (FDType.Base, r: Rel) =>
          if (db.holds(eval.toSql(r), t.fd)) Nil else Seq(s"base $fd does not hold on ${r.render}")
        case (FDType.Base, s) => Seq(s"base $fd attributed to non-relation ${s.render}")
        case (FDType.UpstagedLeft | FDType.UpstagedRight, Join(l, r, _, _)) =>
          val side = if (t.fdType == FDType.UpstagedLeft) l else r
          if (AS.subsetOf(t.fd.attrs, attrsOf(schema, side))) Nil
          else Seq(s"${t.fdType.label} $fd leaves its side")
        case (FDType.JoinFD, Join(l, r, _, _)) =>
          if (AS.subsetOf(t.fd.attrs, attrsOf(schema, l)) || AS.subsetOf(t.fd.attrs, attrsOf(schema, r)))
            Seq(s"joinFD $fd lies within one side")
          else Nil
        case (FDType.UpstagedLeft | FDType.UpstagedRight | FDType.JoinFD, s) =>
          Seq(s"${t.fdType.label} $fd attributed to non-join ${s.render}")
        case _ => Nil
      }
    }
    dupes.toSeq ++ sum ++ perTriple
  }
}
