package layphbench

import scala.jdk.CollectionConverters._
import scala.util.hashing.MurmurHash3
import com.fasterxml.jackson.databind.ObjectMapper
import repro.core.{GraphDelta, GraphState}

/** What a run's numbers depend on besides the code: the generated inputs
  * and the Spark set-up. Two runs are comparable only if their
  * fingerprints agree (see [[Fingerprint.comparable]]).
  */
final case class Fingerprint(
    workload: String,
    seed: Long,
    vertices: Int,
    edges: Long,
    edgeHash: Int,
    deltaHashes: Seq[Int],
    nproc: Int,
    master: String,
    defaultParallelism: Int,
) {
  def toJson: String =
    s"""{"workload": ${Json.str(workload)}, "seed": $seed, "vertices": $vertices, "edges": $edges, """ +
      s""""edge_hash": $edgeHash, "delta_hashes": [${deltaHashes.mkString(", ")}], "nproc": $nproc, """ +
      s""""master": ${Json.str(master)}, "default_parallelism": $defaultParallelism}"""
}

object Fingerprint {

  /** Order-independent: a commutative sum of per-element hashes. */
  private def unordered(hashes: Iterator[Int]): Int = {
    var sum = 0
    var n = 0
    hashes.foreach { h => sum += h; n += 1 }
    MurmurHash3.finalizeHash(sum, n)
  }

  def edgeHash(g: GraphState): Int =
    unordered(g.edges.map(e => (e.src, e.dst, e.w).##))

  def deltaHash(d: GraphDelta): Int =
    unordered(d.updates.iterator.map(u => (u.src, u.dst, u.w, u.isAdd).##))

  /** Same inputs and the same Spark set-up. The delta lists may differ in
    * length (a run applies as many ΔGs as fit in its time), so only their
    * common prefix is compared.
    */
  def comparable(a: Fingerprint, b: Fingerprint): Boolean =
    a.copy(deltaHashes = Nil) == b.copy(deltaHashes = Nil) &&
      a.deltaHashes.zip(b.deltaHashes).forall { case (x, y) => x == y }

  /** Parses what [[Fingerprint.toJson]] wrote. */
  def fromJson(s: String): Fingerprint = {
    val j = new ObjectMapper().readTree(s)
    Fingerprint(j.get("workload").asText, j.get("seed").asLong, j.get("vertices").asInt,
      j.get("edges").asLong, j.get("edge_hash").asInt,
      j.get("delta_hashes").elements().asScala.map(_.asInt).toSeq,
      j.get("nproc").asInt, j.get("master").asText, j.get("default_parallelism").asInt)
  }
}
